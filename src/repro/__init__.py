"""Auto-Formula reproduction: formula recommendation in spreadsheets.

A from-scratch Python reproduction of *"Auto-Formula: Recommend Formulas in
Spreadsheets using Contrastive Learning for Table Representations"*
(SIGMOD 2024).  See ``DESIGN.md`` (repository root) for the system
inventory and the two-stage retrieval engine, and ``EXPERIMENTS.md`` for
the reproduced tables and figures and how to run them.

Typical usage::

    from repro import (
        build_training_universe, generate_training_pairs, train_models,
        AutoFormula, AutoFormulaConfig,
    )

    universe = build_training_universe()
    pairs = generate_training_pairs(universe)
    encoder, history = train_models(pairs)

    system = AutoFormula(encoder, AutoFormulaConfig())
    system.fit(reference_workbooks)
    prediction = system.predict(target_sheet, target_cell)

Serving usage (multi-tenant workspaces with mutable corpora)::

    from repro import FormulaService, RecommendationRequest

    service = FormulaService(encoder)
    workspace = service.create_workspace("acme", workbooks=reference_workbooks)
    workspace.add_workbook(new_workbook)          # incremental, no refit
    response = workspace.recommend(RecommendationRequest(target_sheet, "D41"))
"""

from repro.sheet import Cell, CellAddress, CellStyle, RangeAddress, Sheet, Workbook
from repro.formula import (
    ErrorValue,
    FormulaEngine,
    RecalcReport,
    extract_template,
    instantiate_template,
    is_error_value,
    parse_formula,
)
from repro.weaksup import generate_training_pairs
from repro.models import ModelConfig, SheetEncoder, TrainingConfig, train_models
from repro.core import AutoFormula, AutoFormulaConfig, FormulaPredictor, Prediction
from repro.corpus import (
    build_all_enterprise_corpora,
    build_enterprise_corpus,
    build_training_universe,
)
from repro.service import (
    AbstainReason,
    FormulaService,
    RecommendationRequest,
    RecommendationResponse,
    Workspace,
)
from repro.server import (
    FormulaClient,
    FormulaServer,
    ServerConfig,
    start_server_in_background,
)
from repro.obs import MetricsRegistry, Tracer, get_tracer

__version__ = "1.0.0"

__all__ = [
    "Cell",
    "CellAddress",
    "CellStyle",
    "RangeAddress",
    "Sheet",
    "Workbook",
    "FormulaEngine",
    "RecalcReport",
    "ErrorValue",
    "is_error_value",
    "parse_formula",
    "extract_template",
    "instantiate_template",
    "generate_training_pairs",
    "ModelConfig",
    "TrainingConfig",
    "SheetEncoder",
    "train_models",
    "AutoFormula",
    "AutoFormulaConfig",
    "FormulaPredictor",
    "Prediction",
    "build_enterprise_corpus",
    "build_all_enterprise_corpora",
    "build_training_universe",
    "AbstainReason",
    "FormulaService",
    "RecommendationRequest",
    "RecommendationResponse",
    "Workspace",
    "FormulaClient",
    "FormulaServer",
    "ServerConfig",
    "start_server_in_background",
    "MetricsRegistry",
    "Tracer",
    "get_tracer",
    "__version__",
]
