"""Experiment harness: figure/table regeneration for the paper's evaluation."""

from repro.experiments.figures import (
    ALL_FIGURES,
    ablation_cpistack,
    ablation_models,
    ablation_unroll,
    ablation_windows,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    figure13,
    table1,
)
from repro.experiments.executor import (
    JobResult,
    SweepExecutor,
    SweepJob,
    SweepStats,
    sweep_figures,
)
from repro.experiments.report import FigureResult, Series, geomean
from repro.experiments.runner import (ExperimentRunner, RunRecord,
                                      code_fingerprint, front_end)

__all__ = [
    "ALL_FIGURES",
    "ExperimentRunner",
    "FigureResult",
    "JobResult",
    "RunRecord",
    "Series",
    "SweepExecutor",
    "SweepJob",
    "SweepStats",
    "sweep_figures",
    "code_fingerprint",
    "front_end",
    "ablation_cpistack",
    "ablation_models",
    "ablation_unroll",
    "ablation_windows",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "geomean",
    "table1",
]
