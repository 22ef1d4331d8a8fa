"""Exact homology, character, and filtration computations over prime fields."""

__version__ = "0.1.0"

from .characters import (
    LaurentPolynomial,
    h,
    h_trunc,
    nim_poly,
    schur2,
    schur2_trunc,
    tableau_sum,
)
from .combinatorics import (
    RibbonShape,
    TwoRowTableau,
    binom_int,
    columns_to_ribbon,
    enumerate_A,
    enumerate_pssyt,
    enumerate_ssyt,
    hook_columns,
    nim_sum,
    p_index,
    p_index_total,
    ribbon_to_columns,
)
from .complexes import (
    ChainComplex,
    PoincarePolynomial,
    WeightSequence,
    build_complex,
    check_involution,
    check_stable_periodicity_hook,
    homology_dims,
    lucas_reduce,
    min_power_exceeding,
    poincare_formula_all_ones,
    ses_dimension_check,
    stable_hook_cohomology,
)
from .determinantal import (
    BigradedMonomial,
    IdealPowerSlice,
    check_iadic_conjecture,
    check_lead_terms,
    filtration_character,
    ideal_power_slice,
    leading_monomials,
    rbar_character,
    tableau_monomial,
    tableau_product,
)
from .incidence import (
    CohomologyCharacterPair,
    UnsupportedRegimeError,
    block_basis,
    h1_char2_char,
    h1_small_weight_char,
    h1_window_char,
    h_characters,
    module_dimension,
    omega_block,
    rbar_like_character,
)
from .linalg import (
    IntegerMatrix,
    PrimeFieldMatrix,
    kernel_basis,
    matmul_mod,
    smith_invariants,
)
