"""The experiment harness: the paper's evaluation as table-driven sweeps.

Figures 5–8 of the evaluation (Section V) and the Formula 1 check are one
parameter sweep each, declared as rows of
:data:`~repro.experiments.sweep.FIGURES` and run by
:func:`~repro.experiments.sweep.run_sweep`, which returns structured rows;
:mod:`repro.experiments.report` renders them as the tables recorded in
``EXPERIMENTS.md``.  The beyond-paper studies (ablations, robustness,
soak, overload, scaling) have a module each.  ``python -m
repro.experiments <fig5|fig6|fig7|fig8|model|ablations|...|all>`` runs
them from the command line.

Scales
------
The paper's defaults are ``N = 1000`` peers and ``n = 10^5`` items
(``n = 10^6`` for Figures 7(b) and 8).  Because a laptop run of the full
sweep takes minutes, every experiment accepts an
:class:`~repro.experiments.harness.ExperimentScale`; the ``small`` preset
keeps the workload *shape* (``o = 10·n/N`` instances per peer, same ρ and
α defaults) at a fraction of the size and is what the test suite uses.
EXPERIMENTS.md records paper-scale runs.
"""

from repro.experiments.harness import (
    ExperimentScale,
    PaperDefaults,
    TrialSetup,
    build_trial,
)
from repro.experiments.sweep import FIGURES, Sweep, SweepRow, run_sweep

__all__ = [
    "ExperimentScale",
    "FIGURES",
    "PaperDefaults",
    "Sweep",
    "SweepRow",
    "TrialSetup",
    "build_trial",
    "run_sweep",
]
