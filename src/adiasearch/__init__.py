"""Simulator and schedule optimizer for structured (nested) adiabatic search.

Splits an n-qubit database into independently searched blocks, provides the
corresponding interpolating Hamiltonians and their spectral gaps, computes
bound-saturating running times for arbitrary splittings, and verifies the
adiabatic success estimate by direct integration at small n.
"""

from .core import (
    LinearSchedule,
    MarkedState,
    Precision,
    Splitting,
    equal_splitting,
    make_splitting,
)
from .dynamics import (
    EvolutionReport,
    NormDriftError,
    adiabaticity_lhs,
    evolve,
)
from .hamiltonian import (
    DENSE_CAP,
    MatrixFreeHamiltonian,
    final_diagonal,
    final_terms,
)
from .runtime import (
    QuadratureError,
    RunTimeResult,
    TimeSchedule,
    closed_form_eps_t,
    optimal_schedule,
    reproduce_table,
    running_time_integral,
    scaling_coefficients,
)
from .spectral import (
    GapProfile,
    gap_profile,
    max_structured_degeneracy,
    max_structured_eigenvalue,
    subsystem_gap,
)

__version__ = "0.1.0"
