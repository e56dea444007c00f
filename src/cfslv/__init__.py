"""Exact polynomial-time coefficient search for compute-and-forward.

The fast solvers exploit the diagonal-minus-low-rank structure of the
Gram matrices that arise in compute-and-forward relaying; a brute-force
oracle certifies their outputs on randomized campaigns.
"""

from .bench import BenchConfig, BenchResult, TrialRecord, run_bench, run_trial
from .core import (
    ChannelVector,
    CoefficientVector,
    DpkDecomposition,
    GramMatrix,
    SolverResult,
    canonical_sign,
    quadratic_form,
)
from .errors import ConvergenceError, ResourceBudgetError
from .gram import (
    MimoChannel,
    build_gram_mimo,
    build_gram_single,
    dpk_from_single,
    search_radius_psi,
    validate_dpk,
)
from .oracle import brute_force_slv, certification_radius
from .rate import computation_rate, rate_from_objective
from .solver_dpk import solve_dpk
from .solver_single import solve_single

__version__ = "0.1.0"

__all__ = [
    "BenchConfig",
    "BenchResult",
    "ChannelVector",
    "CoefficientVector",
    "ConvergenceError",
    "DpkDecomposition",
    "GramMatrix",
    "MimoChannel",
    "ResourceBudgetError",
    "SolverResult",
    "TrialRecord",
    "brute_force_slv",
    "build_gram_mimo",
    "build_gram_single",
    "canonical_sign",
    "certification_radius",
    "computation_rate",
    "dpk_from_single",
    "quadratic_form",
    "rate_from_objective",
    "run_bench",
    "run_trial",
    "search_radius_psi",
    "solve_dpk",
    "solve_single",
    "validate_dpk",
]
