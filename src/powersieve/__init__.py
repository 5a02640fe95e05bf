"""Exact spacing statistics and large-sieve experiments for fractions with
power denominators: enumeration, torus distances, neighbor-count scans,
Gram-spectrum sieve constants, Weyl differencing bounds, Fejer/Poisson
kernel identities, and Dirichlet character tables with Gauss sums.
"""

__version__ = "0.1.0"

from .characters import (
    CharacterTable,
    additive_lhs,
    build_character_table,
    gauss_sum,
    mult_transfer_check,
    multiplicative_lhs,
)
from .expsum import (
    PolynomialPhase,
    exp_sum,
    exp_sum_prefixes,
    fejer_phi,
    fejer_phi_hat,
    poisson_identity_check,
    v_kernel,
    v_kernel_series,
    weyl_bound,
)
from .rationals import (
    FractionSet,
    PowerFraction,
    enumerate_set,
    expected_cardinality,
)
from .sieve import (
    BoundFormula,
    ConvergenceError,
    GramSpectrum,
    SieveBoundViolation,
    SieveInstance,
    bound_catalog,
    cohen_selberg_ceiling,
    duality_check,
    gram_lambda_max,
    min_torus_gap,
    per_q_exact_ceiling,
    sieve_ratio_experiment,
)
from .spacing import (
    conjecture_scan,
    neighbor_counts_bruteforce,
    neighbor_counts_sorted,
    spacing_count_bruteforce,
    spacing_count_fast,
)

__all__ = [name for name in dir() if not name.startswith("_")]
