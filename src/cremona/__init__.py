"""Exact models for the maximal algebraic subgroups of the plane Cremona group.

The package builds rational surfaces with group actions as integer lattice
data (blowup Picard lattices, isometry groups, conic bundle markings),
decides minimality and del Pezzo questions by exact arithmetic, and
classifies each descriptor into one of the eleven maximal families, with
reduction chains for the non-maximal cases and numerical obstruction
reports for equivariant Sarkisov links.
"""

__version__ = "0.1.0"

#: every public name, under the module that defines it; ``__getattr__``
#: imports that module when the name is first read (PEP 562)
_EXPORTS = {
    "bundles": (
        "ExceptionalBundleModel", "Z22BundleModel", "build_from_four_lines",
        "build_from_three_lines_conic", "del_pezzo_verdict_for_profile",
        "exceptional_from_delta", "fixed_curve_class", "halphen_check",
        "involution_matrix", "is_del_pezzo_bundle", "jonquieres_involution_matrix",
        "minimality_obstruction_solver", "second_fibration_solver", "z22_from_triplet"),
    "classifier": (
        "DelPezzoDescriptor", "ExceptionalDescriptor", "HirzebruchDescriptor", "Verdict",
        "Z22Descriptor", "classify", "link_feasibility"),
    "errors": ("CremonaError",),
    "geometry": ("Conic", "Line", "Mobius", "P1Point", "P2Point", "mobius_from_triples"),
    "picard": (
        "BlowupLattice", "DivisorClass", "FiberedMarking", "LatticeAction",
        "adjunction_genus", "enumerate_minus_one_classes", "intersect",
        "invariant_sublattice", "is_pair_minimal", "reflection_matrix"),
    "square_class": (
        "RamificationTriplet", "delta_canonical_form", "realizable_profiles", "stabilizer",
        "triplet_canonical_form", "triplet_from_profile", "validate_triplet"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # a name outside the table may be a submodule: ``from cremona import
    # jsonio`` imports it after this AttributeError
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)
