"""The paper's experiments (Section VII): workloads, the run harness, and
the Figure 2-4 sweeps (``repro.experiments.figures``)."""

from repro.experiments.figures import figure2, figure3, figure4
from repro.experiments.harness import ExperimentResult, run_experiment
from repro.experiments.workload import FixedRateWorkload, PerNodeWorkload

__all__ = [
    "ExperimentResult",
    "FixedRateWorkload",
    "PerNodeWorkload",
    "figure2",
    "figure3",
    "figure4",
    "run_experiment",
]
