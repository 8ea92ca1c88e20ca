"""Exact models for the maximal algebraic subgroups of the plane Cremona group.

The package builds rational surfaces with group actions as integer lattice
data (blowup Picard lattices, isometry groups, conic bundle markings),
decides minimality and del Pezzo questions by exact arithmetic, and
classifies each descriptor into one of the eleven maximal families, with
reduction chains for the non-maximal cases and numerical obstruction
reports for equivariant Sarkisov links.
"""

from .bundles import (
    ExceptionalBundleModel,
    Z22BundleModel,
    build_from_four_lines,
    build_from_three_lines_conic,
    del_pezzo_verdict_for_profile,
    exceptional_from_delta,
    fixed_curve_class,
    halphen_check,
    involution_matrix,
    is_del_pezzo_bundle,
    jonquieres_involution_matrix,
    minimality_obstruction_solver,
    second_fibration_solver,
    z22_from_triplet,
)
from .classifier import (
    DelPezzoDescriptor,
    ExceptionalDescriptor,
    HirzebruchDescriptor,
    Verdict,
    Z22Descriptor,
    classify,
    link_feasibility,
)
from .errors import CremonaError
from .geometry import (
    Conic,
    Line,
    Mobius,
    P1Point,
    P2Point,
    mobius_from_triples,
)
from .picard import (
    BlowupLattice,
    DivisorClass,
    FiberedMarking,
    LatticeAction,
    adjunction_genus,
    enumerate_minus_one_classes,
    intersect,
    invariant_sublattice,
    is_pair_minimal,
    reflection_matrix,
)
from .square_class import (
    RamificationTriplet,
    delta_canonical_form,
    realizable_profiles,
    stabilizer,
    triplet_canonical_form,
    triplet_from_profile,
    validate_triplet,
)

__version__ = "0.1.0"

__all__ = [
    "BlowupLattice",
    "Conic",
    "CremonaError",
    "DelPezzoDescriptor",
    "DivisorClass",
    "ExceptionalBundleModel",
    "ExceptionalDescriptor",
    "FiberedMarking",
    "HirzebruchDescriptor",
    "LatticeAction",
    "Line",
    "Mobius",
    "P1Point",
    "P2Point",
    "RamificationTriplet",
    "Verdict",
    "Z22BundleModel",
    "Z22Descriptor",
    "adjunction_genus",
    "build_from_four_lines",
    "build_from_three_lines_conic",
    "classify",
    "del_pezzo_verdict_for_profile",
    "delta_canonical_form",
    "enumerate_minus_one_classes",
    "exceptional_from_delta",
    "fixed_curve_class",
    "halphen_check",
    "intersect",
    "invariant_sublattice",
    "involution_matrix",
    "is_del_pezzo_bundle",
    "is_pair_minimal",
    "jonquieres_involution_matrix",
    "link_feasibility",
    "minimality_obstruction_solver",
    "mobius_from_triples",
    "realizable_profiles",
    "reflection_matrix",
    "second_fibration_solver",
    "stabilizer",
    "triplet_canonical_form",
    "triplet_from_profile",
    "validate_triplet",
    "z22_from_triplet",
]
