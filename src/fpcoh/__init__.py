"""Exact homology, character, and filtration computations over prime fields."""

__version__ = "0.1.0"

from .characters import (
    LaurentPolynomial,
    h,
    h_trunc,
    nim_poly,
    schur2,
    schur2_trunc,
)
from .combinatorics import (
    binom_int,
    enumerate_A,
    enumerate_pssyt,
    enumerate_ssyt,
    nim_sum,
    p_index,
    p_index_total,
)
from .complexes import (
    ChainComplex,
    PoincarePolynomial,
    build_complex,
    check_involution,
    check_stable_periodicity_hook,
    homology_dims,
    min_power_exceeding,
    poincare_formula_all_ones,
    ses_dimension_check,
    stable_hook_cohomology,
)
from .determinantal import (
    IdealPowerSlice,
    check_lead_terms,
    ideal_power_slice,
    leading_monomials,
    tableau_monomial,
)
from .incidence import (
    CohomologyCharacterPair,
    UnsupportedRegimeError,
    block_basis,
    h1_char2_char,
    h1_small_weight_char,
    h1_window_char,
    h_characters,
    omega_block,
)
from .linalg import (
    PrimeFieldMatrix,
    matmul_mod,
    smith_invariants,
)
