"""The repo's performance benchmark: four workloads, end to end and by layer.

    python3 benchmarks/perf/run.py --seed 0

runs every workload of ``BENCHMARK.json`` untraced (the end-to-end
metrics) and again traced (the per-layer table), each in a process of its
own, checks the answers, prints every metric by name with its unit and
writes ``benchmarks/perf/out/result-seed<seed>.json`` for ``compare.py``.

    python3 benchmarks/perf/run.py --workload inproc_hot --seed 3 --seconds 10 --trace 0

runs one workload once and prints one JSON object as the last line of
standard output — the form ``BENCHMARK.json``'s ``command`` is run in.
``--quick`` runs everything in this process on the smallest corpora for
about a second each (the smoke test).  See README.md beside this file.
"""

from __future__ import annotations

import os

# Two BLAS threads on a 2-core box double CPU time for no wall gain and
# fight the load generator; pinned before NumPy loads, recorded in the
# fingerprint.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from perf_harness import (  # noqa: E402
    OUT_DIR,
    OpLog,
    Recorder,
    blocked,
    canary_ms,
    fingerprint,
    finite,
    install_layer_shims,
    layer_summary,
    log,
    peak_rss_mb,
    rel_spread,
    speed_factor,
    write_json,
)
from perf_workloads import TAIL_CYCLES, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Set-ups per untraced run; ``setup_s`` is the median of all but the
#: first, which pays for imports and a cold page cache (warm-up).  The
#: third is skipped once two have taken ``SETUP_BUDGET_S`` of wall time:
#: when the host runs 1.5x slow, as it does for minutes at a time, three
#: set-ups of the larger corpora would not leave the driver's 92 runs
#: inside their hour.
SETUP_REPS = 3
SETUP_BUDGET_S = 10.0
#: Share of a traced run's seconds spent untraced first, as the
#: denominator of ``bench.trace_overhead_share``.
REFERENCE_SHARE = 0.4


#: Length of one slice of a timed phase; a canary runs between slices.
SLICE_SECONDS = 0.4


def _setup(cls, seed: int, quick: bool, encoder):
    """Build the workload; returns it with its normalized set-up seconds."""
    workload = cls(seed, quick=quick, encoder=encoder)
    before = canary_ms()
    start = time.perf_counter()
    try:
        workload.setup()
    except BaseException:
        workload.close()
        raise
    seconds = time.perf_counter() - start
    return workload, seconds * speed_factor(before, canary_ms())


def measure(workload, seconds: float, oplog: OpLog) -> list:
    """Run the timed phase in short slices, each bracketed by the canary
    and normalized to the reference machine speed; returns the canaries."""
    deadline = time.perf_counter() + seconds
    canaries = [canary_ms()]
    while time.perf_counter() < deadline:
        first = len(oplog.units)
        workload.run(min(SLICE_SECONDS, deadline - time.perf_counter()), oplog)
        canaries.append(canary_ms())
        oplog.normalize(first, speed_factor(*canaries[-2:]))
    return canaries


def measure_tail(workload, oplog: OpLog) -> None:
    """Churn cycles on the workload's corpus, after the timed phase of a
    traced run (the cycle normalizes its own phases)."""
    for __ in range(1 if workload.quick else TAIL_CYCLES):
        workload.churn_cycle(workload.workspace, oplog)


def _unstable(canaries: list) -> bool:
    """The machine's speed moved by more than 10 % (quartiles) in the run."""
    if len(canaries) < 4:
        return False
    quartiles = statistics.quantiles(canaries, n=4)
    return (quartiles[2] - quartiles[0]) / quartiles[1] > 0.10


def _entry(value, n: int = 1, spread=None) -> dict:
    return {"value": value, "spread": spread, "n": n, "blocks": 1}


def _totals(workload, *oplogs) -> dict:
    attempted, failed = workload.checks["attempted"], workload.checks["failed"]
    for oplog in oplogs:
        ops, bad = oplog.op_count()
        attempted, failed = attempted + ops, failed + bad
    return {"attempted": attempted, "failed": failed}


# ------------------------------------------------------------- untraced run


def run_untraced(cls, seed: int, seconds: float, quick: bool = False, encoder=None) -> dict:
    """Set up (several times), run the timed phase and, where its stream
    has no edits, an edit tail, untraced; returns the end-to-end metrics of
    one workload."""
    setups, workload, started = [], None, time.perf_counter()
    for __ in range(1 if quick else SETUP_REPS):
        if len(setups) >= 2 and time.perf_counter() - started > SETUP_BUDGET_S:
            break
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        workload, seconds_taken = _setup(cls, seed, quick, encoder)
        setups.append(seconds_taken)
    timed, tail = OpLog(cls.callers), OpLog()
    try:
        canaries = measure(workload, seconds, timed)
        rss = peak_rss_mb()
        if not workload.writes:
            workload.edit_tail(workload.workspace, tail)
    finally:
        workload.close()
    rss = getattr(workload, "server_report", {}).get("peak_rss_mb", rss)

    def pick(kind: str, stat: str, scale: float = 1.0):
        # From the timed phase where the stream has this op, else from the tail.
        return blocked(timed, kind, stat, scale) or blocked(tail, kind, stat, scale)

    spread, setups = None, setups[1:] or setups
    if len(setups) >= 2:
        quartiles = statistics.quantiles(setups, n=4)
        spread = [quartiles[0], quartiles[2]]
    metrics = {
        "setup_s": _entry(statistics.median(setups), len(setups), spread),
        "throughput_ops_s": blocked(timed, "", "throughput"),
        "recommend_p50_ms": pick("recommend", "p50", 1e3),
        "recommend_p95_ms": pick("recommend", "p95", 1e3),
        "edit_p50_ms": pick("edit", "p50", 1e3),
        "peak_rss_mb": _entry(rss),
        "match_share": _entry(timed.matched / max(timed.asked, 1), timed.asked),
    }
    return {
        "metrics": metrics,
        "canary_ms": statistics.median(canaries),
        "unstable": _unstable(canaries),
        **_totals(workload, timed, tail),
    }


# --------------------------------------------------------------- traced run


def _mean_ms(table: dict, name: str) -> float:
    row = table.get(name)
    if not row or not row["calls"]:
        return 0.0
    return row["total_s"] / row["calls"] * 1e3


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def run_traced(cls, seed: int, seconds: float, quick: bool = False, encoder=None) -> dict:
    """Run the same stream with spans recorded around every layer; returns
    the per-layer metrics (a layer the workload never enters reports 0)."""
    workload, __ = _setup(cls, seed, quick, encoder)
    recorder = Recorder()
    reference, traced, tail = OpLog(cls.callers), OpLog(cls.callers), OpLog()
    wire, stats, sharded = {}, {}, None
    try:
        canaries = measure(workload, seconds * REFERENCE_SHARE, reference)
        if hasattr(workload, "sharded_ratio"):
            sharded = workload.sharded_ratio(0.25 if quick else 1.5)
        install_layer_shims(recorder)
        workload.recorder = recorder
        if hasattr(workload, "server"):
            workload.server.trace()
        canaries += measure(workload, seconds * (1.0 - REFERENCE_SHARE), traced)
        on_wire = hasattr(workload, "server")
        has_tail = workload.writes != "all"
        if has_tail and not on_wire:
            measure_tail(workload, tail)
        # Harness-driven passes below serve requests of their own; the
        # per-request layer means are taken over the spans up to here.
        stream_spans, stream_counts = len(recorder.spans), dict(recorder.counts)
        if on_wire:
            # The twin's tail says nothing about the served workspace; it
            # only leaves a snapshot for the persistence replay.
            measure_tail(workload, tail)
        staged = workload.staged_pass()
        persistence = workload.persistence_replay()
        if hasattr(workload, "wire_replay"):
            wire = workload.wire_replay()
            stats = workload.stats()
        memory = workload.workspace.memory_stats()
    finally:
        recorder.uninstall()
        workload.close()

    spans = recorder.spans
    summary = layer_summary(spans[:stream_spans], stream_counts)
    table = recorder.table()
    child = getattr(workload, "server_report", {})
    if child:
        # The served workspace lives in the child: its spans carry the
        # service/core/ann layers of the wire traffic.
        for key, value in child["summary"].items():
            summary[key] = summary.get(key, 0.0) + value
        for name, row in child["table"].items():
            mine = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for field in mine:
                mine[field] += row[field]
        memory = child["memory"]

    requests = summary["service.requests"]
    edits = summary["edit_calls"]
    stage_names = ("core.s1_embed", "core.s1_search", "core.s2_embed", "core.s2_search", "core.s3_adapt")
    stage_s = {name: table.get(name, {"total_s": 0.0})["total_s"] for name in stage_names}
    staged_predict_s = layer_summary(spans[stream_spans:], {})["staged_predict_s"]
    serve_ms = _ratio(summary["serve_s"], requests) * 1e3

    def pick(kind: str, stat: str, scale: float = 1.0):
        # From the timed phase where the stream has this op, else from the tail.
        return blocked(traced, kind, stat, scale) or blocked(tail, kind, stat, scale)

    p50, p99 = pick("recommend", "p50", 1e3), pick("recommend", "p99", 1e3)
    indexes = [index for index in (memory.get("sheet_index"), memory.get("formula_index")) if index]
    base = blocked(reference, "", "throughput")
    load = blocked(traced, "", "throughput")
    metrics = {
        "server.decode_ms": _mean_ms(table, "server.decode"),
        "server.encode_ms": _mean_ms(table, "server.encode"),
        "server.intern_hit_share": wire.get("intern_hit_share", 0.0),
        "server.queue_wait_ms": stats.get("queue_wait", {}).get("mean_seconds", 0.0) * 1e3,
        "server.batch_size_mean": stats.get("coalescing_ratio", 0.0),
        "server.wire_overhead_ms": (p50["value"] - serve_ms) if child else 0.0,
        "service.serve_ms": serve_ms,
        "service.overhead_ms": _ratio(summary["serve_s"] - summary["predict_s"], requests) * 1e3,
        "service.collapsed_share": 1.0 - _ratio(summary["service.cells_predicted"], requests)
        if requests
        else 0.0,
        "service.edit_ms": _ratio(summary["edit_s"], edits) * 1e3,
        "service.reindex_ms": _ratio(summary["reindex_s"], edits) * 1e3,
        "service.sharded_k2_ratio": sharded or 0.0,
        **{
            name + "_ms": _ratio(stage_s[name], staged["requests"]) * 1e3 for name in stage_names
        },
        "core.s3_share": _ratio(stage_s["core.s3_adapt"], sum(stage_s.values())),
        "core.stage_sum_ratio": _ratio(sum(stage_s.values()), staged_predict_s),
        "core.sheet_vector_hit_share": 1.0
        - _ratio(summary["sheet_vector_misses"], summary["sheet_hits_calls"])
        if summary["sheet_hits_calls"]
        else 0.0,
        "core.fit_ms_per_wb": _ratio(workload.times["fit_s"], workload.times["fit_workbooks"]) * 1e3,
        "features.featurize_ms": _ratio(summary["featurize_serve_s"], requests) * 1e3,
        "models.forward_ms": _ratio(summary["forward_serve_s"], requests) * 1e3,
        "models.forward_calls": _ratio(summary["forward_serve_calls"], requests),
        "models.train_s": workload.times["train_s"],
        "ann.search_ms": _ratio(summary["search_serve_s"], requests) * 1e3,
        "ann.rows_scored": _ratio(summary["ann.rows_scored"], requests),
        "ann.add_ms": _ratio(summary["ann_add_s"], summary["ann_add_calls"]) * 1e3,
        "ann.remove_ms": _ratio(summary["ann_remove_s"], summary["ann_remove_calls"]) * 1e3,
        "ann.tombstones": float(sum(index["tombstones"] for index in indexes)),
        "ann.index_mb": memory.get("total_bytes", 0) / 1e6,
        "formula.recalc_ms": _ratio(summary["recalc_s"], edits) * 1e3,
        "formula.recalc_cells": _ratio(summary["formula.recalc_cells"], edits),
        "persistence.save_arrays_ms": _mean_ms(table, "persistence.save_arrays"),
        "persistence.save_corpus_ms": _mean_ms(table, "persistence.save_corpus"),
        "persistence.load_ms": _mean_ms(table, "persistence.load"),
        "persistence.log_append_ms": _ratio(summary["log_append_s"], summary["log_append_calls"]) * 1e3,
        "persistence.snapshot_mb": persistence["snapshot_mb"],
        "client.recommend_p99_ms": p99["value"],
        "client.edit_p95_ms": pick("edit", "p95", 1e3)["value"],
        "client.ingest_wb_s": pick("add", "rate")["value"],
        "client.save_s": pick("save", "median")["value"],
        "client.restore_s": pick("restore", "median")["value"],
        "bench.trace_overhead_share": 1.0 - _ratio(load["value"], base["value"]),
        "bench.unattributed_share": 1.0 - _ratio(summary["covered_s"], summary["client_s"]),
        "bench.canary_ms": statistics.median(canaries),
    }
    write_json(
        OUT_DIR / f"trace-{cls.name}.json",
        {
            "workload": cls.name,
            "seed": seed,
            "self_time": table,
            "spans_format": ["id", "name", "start_s", "end_s", "parent_id", "request_id"],
            "spans": spans[:20000],
            "server_spans": child.get("spans", []),
        },
    )
    return {
        "metrics": {name: _entry(value) for name, value in metrics.items()},
        "p99_samples": p99["n"],
        "canary_ms": statistics.median(canaries),
        "unstable": _unstable(canaries),
        **_totals(workload, reference, traced, tail),
    }


# ------------------------------------------------------------------ results


def declared(section: str) -> dict:
    return {metric["name"]: metric for metric in SPEC[section]}


def result_line(run: dict, section: str) -> dict:
    """The one JSON object the driver reads: exactly the declared metrics."""
    units = declared(section)
    missing = [name for name in units if run["metrics"].get(name) is None]
    extra = [name for name in run["metrics"] if name not in units]
    if missing or extra:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: missing {missing}, undeclared {extra}")
    return {
        "correct": run["failed"] == 0,
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": {
            name: {"value": finite(run["metrics"][name]["value"]), "unit": units[name]["unit"]}
            for name in units
        },
    }


def print_tables(result: dict) -> None:
    for section, title in (("end_to_end", "end to end (untraced)"), ("per_layer", "per layer (traced)")):
        units = declared(section)
        print(f"\n== {title} ==")
        for name, run in result["workloads"].items():
            flags = " UNSTABLE (canary moved > 10 %)" if run["unstable"][section] else ""
            print(f"\n[{name}] attempted {run['attempted']} failed {run['failed']}{flags}")
            print(f"  {'metric':30s} {'unit':>8s} {'median':>12s} {'spread':>8s} {'n':>8s} {'blocks':>6s}")
            for metric, entry in run[section].items():
                if entry is None:
                    continue
                print(
                    f"  {metric:30s} {units[metric]['unit']:>8s} {entry['value']:12.4f} "
                    f"{100 * rel_spread(entry):7.1f}% {entry['n']:8d} {entry['blocks']:6d}"
                )


def assemble(seed: int, seconds: float, runs: dict) -> dict:
    """``runs[workload] = (untraced, traced)`` → the result document."""
    workloads = {}
    for name, (untraced, traced) in runs.items():
        for section, run in (("end_to_end", untraced), ("per_layer", traced)):
            for metric, entry in run["metrics"].items():
                if entry is not None:
                    entry["unit"] = declared(section)[metric]["unit"]
        workloads[name] = {
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "failed_share": (untraced["failed"] + traced["failed"])
            / max(untraced["attempted"] + traced["attempted"], 1),
            "p99_samples": traced["p99_samples"],
            "canary_ms": {"end_to_end": untraced["canary_ms"], "per_layer": traced["canary_ms"]},
            "unstable": {"end_to_end": untraced["unstable"], "per_layer": traced["unstable"]},
        }
    return {"seed": seed, "seconds": seconds, "fingerprint": fingerprint(), "workloads": workloads}


def run_all(seed: int, seconds: float, quick: bool, out: Path) -> int:
    runs = {}
    if quick:
        from perf_workloads import train_encoder

        encoder = train_encoder()
        for name, cls in WORKLOADS.items():
            log(f"[{name}] quick run")
            runs[name] = (
                run_untraced(cls, seed, seconds, quick=True, encoder=encoder),
                run_traced(cls, seed, seconds, quick=True, encoder=encoder),
            )
    else:
        for name in WORKLOADS:
            pair = []
            for trace in (0, 1):
                detail = OUT_DIR / f"detail-{name}-{trace}.json"
                log(f"[{name}] {'traced' if trace else 'untraced'} run, {seconds:g} s")
                subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace), "--detail", str(detail)],
                    check=True, stdout=subprocess.DEVNULL,
                )
                pair.append(json.loads(detail.read_text(encoding="utf-8")))
                detail.unlink()
            runs[name] = tuple(pair)
    result = assemble(seed, seconds, runs)
    print(json.dumps(result["fingerprint"], indent=1))
    print_tables(result)
    write_json(out, result)
    print(f"\nresult written to {out}")
    return 1 if any(run["failed"] for run in result["workloads"].values()) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload once")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="length of a timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="smallest corpora, ~1 s phases, one process")
    parser.add_argument("--out", type=Path, default=None, help="result document of a full run")
    parser.add_argument("--detail", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (0.5 if args.quick else float(SPEC["run_seconds"]))
    if args.workload is None:
        out = args.out or OUT_DIR / f"result-seed{args.seed}.json"
        return run_all(args.seed, seconds, args.quick, out)
    cls = WORKLOADS[args.workload]
    run = (run_traced if args.trace else run_untraced)(cls, args.seed, seconds, quick=args.quick)
    line = result_line(run, "per_layer" if args.trace else "end_to_end")
    if args.detail is not None:
        write_json(args.detail, run)
    if run["unstable"]:
        log(f"[{args.workload}] unstable: the canary moved more than 10 % during the run")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
