"""The server process of the ``http_sessions`` workload.

Started by ``perf_workloads.ServerChild`` with the trained encoder's
directory and the corpus preset; rebuilds the (seed-independent) corpus,
serves it with ``ServerConfig()`` defaults on an ephemeral port and then
takes commands on stdin, one per line, answering each with one JSON line:

* ``trace`` installs the class-level timing shims (traced phase only);
* ``stop`` — or end of input, if the parent died — drains the server and
  reports peak RSS, index memory and the layer spans.
"""

from __future__ import annotations

import json
import sys


def main() -> int:
    encoder_dir, preset, scale = sys.argv[1], sys.argv[2], float(sys.argv[3])

    from perf_harness import Recorder, install_layer_shims, layer_summary, peak_rss_mb
    from perf_workloads import WORKSPACE, build_evaluation

    from repro import FormulaService, ServerConfig, start_server_in_background
    from repro.models import ModelConfig, SheetEncoder

    def reply(payload) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    encoder = SheetEncoder(ModelConfig())
    encoder.load(encoder_dir)
    service = FormulaService(encoder)
    workspace = service.create_workspace(
        WORKSPACE, workbooks=build_evaluation(preset, scale).reference_workbooks
    )
    handle = start_server_in_background(service, ServerConfig())
    recorder = Recorder()
    try:
        reply({"port": handle.port})
        for line in sys.stdin:
            command = line.strip()
            if command == "trace":
                install_layer_shims(recorder)
                reply({"tracing": True})
            elif command == "stop":
                break
    finally:
        handle.shutdown()
        recorder.uninstall()
    reply(
        {
            "peak_rss_mb": peak_rss_mb(),
            "memory": workspace.memory_stats(),
            "summary": layer_summary(recorder.spans, recorder.counts),
            "table": recorder.table(),
            "spans": recorder.spans[:20000],
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
