"""Exact arithmetic for substitution subshifts and stationary Bratteli diagrams."""

from .errors import (
    CapabilityError,
    DimensionError,
    DomainError,
    FieldMismatchError,
    InternalError,
    MalformedInputError,
    PathError,
    RankError,
    SeedError,
    SubstoeError,
)
from .intpoly import IntPolynomial
from .matrix import (
    ExactMatrix,
    charpoly,
    eventual_positivity_exponent,
    hnf_basis,
    primitivity_exponent,
)
from .field import (
    FieldElement,
    NumberField,
    certified_sign,
    minimal_polynomial,
    number_field,
    perron_minimal_polynomial,
)
from .perron import (
    MultiplicationPair,
    PerronData,
    companion_matrix,
    multiplication_matrices,
    perron_data,
)
from .words import RunWord, word_of
from .subst import FactorLanguage, Substitution, linear_bound_estimate
from .bratteli import FinitePath, OrderedDiagram, diagram_from_substitution
from .clopen import (
    LatticeGroup,
    groups_equal,
    lattice_of,
    s_membership,
)
from .construct import (
    build_oe_alphabet_family,
    build_soe_substitution,
    enlarge_matrix,
    enumerate_rational_y,
    minimize_vertices,
    realize_group_matrix,
    verify_lind_example,
)

__all__ = [name for name in dir() if not name.startswith("_")]
