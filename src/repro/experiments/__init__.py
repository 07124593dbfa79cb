"""Experiment harness: regenerates every table and figure of the paper.

- :mod:`repro.experiments.runner` — traces workloads, simulates the
  shared L1–L3 prefix once, and evaluates any design on the cached
  post-L3 request stream.
- :mod:`repro.experiments.figures` — Figures 1–8 series.
- :mod:`repro.experiments.heatmap` — Figures 9–10 heat maps.
- :mod:`repro.experiments.tables` — Tables 1–4 data.
- :mod:`repro.experiments.render` — ASCII rendering.
- :mod:`repro.experiments.cli` — ``python -m repro.experiments``.
"""

from repro.experiments.runner import Runner, WorkloadTrace
from repro.experiments.simplan import (
    CapturingCache,
    SimPlan,
    config_key,
    sim_key,
)
from repro.experiments.sweep import (
    SweepRecord,
    SweepSummary,
    best_by,
    pareto_frontier,
    run_sweep,
    summarize,
)
from repro.experiments.compare import Comparison, explain_difference, render_comparison
from repro.experiments.validate import ValidationCheck, validate_simulator
from repro.experiments.characterize import WorkloadProfile, characterize, render_profiles
from repro.experiments.checkpoint import (
    CheckpointPlan,
    CheckpointTarget,
    compare_targets,
    plan_checkpointing,
)
from repro.experiments.report import ReproductionReport, generate_report, render_markdown
from repro.experiments.calibrate import CalibrationResult, calibrate_local_factor
from repro.experiments.figures import (
    FigureSeries,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
)
from repro.experiments.heatmap import HeatMap, figure9, figure10
from repro.experiments.tables import table1, table2, table3, table4
from repro.resilience import (
    CampaignResult,
    CellOutcome,
    Journal,
    RetryPolicy,
    SweepExecutor,
)

__all__ = [
    "Runner",
    "WorkloadTrace",
    "SimPlan",
    "CapturingCache",
    "config_key",
    "sim_key",
    "FigureSeries",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "HeatMap",
    "figure9",
    "figure10",
    "table1",
    "table2",
    "table3",
    "table4",
    "SweepRecord",
    "SweepSummary",
    "run_sweep",
    "summarize",
    "pareto_frontier",
    "best_by",
    "Comparison",
    "explain_difference",
    "render_comparison",
    "ValidationCheck",
    "validate_simulator",
    "WorkloadProfile",
    "characterize",
    "render_profiles",
    "CheckpointTarget",
    "CheckpointPlan",
    "plan_checkpointing",
    "compare_targets",
    "ReproductionReport",
    "generate_report",
    "render_markdown",
    "CalibrationResult",
    "calibrate_local_factor",
    "SweepExecutor",
    "CampaignResult",
    "CellOutcome",
    "Journal",
    "RetryPolicy",
]
