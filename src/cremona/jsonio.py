"""JSON schemas for descriptors, models, verdicts and reports.

Parsing is strict: integers must be JSON integers (no floats), points may
be given unreduced, and every error names the offending location with a
``$.path[i]`` pointer.  An integer array (a point, line, divisor or matrix
row) is accepted whole when one C-level type check over it passes; only an
array that fails is walked entry by entry, to name the first bad entry, so
well-formed input builds no paths.  Emission is byte-stable: keys are
sorted, numbers are plain integers, exact rationals are ``"p/q"`` strings,
indents are two spaces, and every document ends with a newline.  The bytes
are those of ``json.dumps(obj, sort_keys=True, indent=2)``; from Python
3.13 on that call writes them, since json encodes ``indent`` in C there,
and before 3.13 a private writer does, since any ``indent`` sends json to
its pure-Python encoder, which takes about three times as long (see
``dumps``).  That writer formats each all-int row, alone or in a
rectangular matrix, with one ``%`` against a cached template of ``%d``
slots.
"""

from __future__ import annotations

import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _string

from .errors import InvalidDescriptor, excerpt
from .geometry import Conic, Line, P1Point, P2Point, _rational
from .picard import BlowupLattice, DivisorClass, LatticeAction
from .square_class import RamificationTriplet, validate_triplet

# bundles and classifier are imported by the functions that use them, so
# that commands needing neither (canonical, lattice) do not load them; the
# annotations naming their types are never evaluated


_INT_ONLY = frozenset({int})
_ROWS = frozenset({list, tuple})
_ROW_TEMPLATES: dict[tuple[str, int], str] = {}


def _row_template(nl: str, n: int) -> str:
    """The text of a row of ``n`` ints at indent ``nl``, with one ``%d`` per
    entry; built once per (indent, length)."""
    t = _ROW_TEMPLATES.get((nl, n))
    if t is None:
        inner = nl + "  "
        t = _ROW_TEMPLATES[nl, n] = "[" + inner + ("," + inner).join(["%d"] * n) + nl + "]"
    return t


def _write(o, out: list[str], nl: str) -> None:
    """Append the text of ``o`` to ``out``, with ``nl`` (a newline and the
    indent of ``o``) before each closing bracket, as json's indent=2 does.
    An all-int row is one ``%`` against its template, and so is each row of
    a rectangular all-int matrix ("%d" raises ValueError past the digit
    limit, as repr does)."""
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        types = set(map(type, o))
        if types == _INT_ONLY:  # a point, a class or a matrix row
            out.append(_row_template(nl, len(o)) % tuple(o))
            return
        inner = nl + "  "
        sep = "," + inner
        if (types <= _ROWS and len(set(map(len, o))) == 1
                and set(map(type, chain.from_iterable(o))) == _INT_ONLY):
            # a matrix: without this branch _dumps takes 1.15-1.37x as long
            # on the workloads' reports (Python 3.10-3.13)
            row = _row_template(inner, len(o[0]))
            out.append("[" + inner + sep.join([row % tuple(r) for r in o]) + nl + "]")
            return
        out.append("[" + inner)
        for x in o:
            _write(x, out, inner)
            out.append(sep)
        out[-1] = nl + "]"
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "," + inner
        out.append("{" + inner)
        for k, v in sorted(o.items()):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out.append(_string(k) + ": ")
            _write(v, out, inner)
            out.append(sep)
        out[-1] = nl + "}"
    elif isinstance(o, str):
        out.append(_string(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))  # ValueError past the int-to-text digit limit
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, written by one
    recursive pass into a list joined once; only str keys and JSON types
    without floats are accepted, any other value is a TypeError."""
    out: list[str] = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


# Chosen once, at import: on the benchmark workloads' reports json's C
# indent encoder is 1.3-1.4x faster than _dumps on Python 3.13.0, while
# before 3.13 any indent sends json to its pure-Python encoder, which takes
# 2.8-3.4x as long as _dumps on 3.11.7 and 2.7-3.8x on 3.12.1.
if sys.version_info >= (3, 13):
    def dumps(obj) -> str:
        """Serialize a JSON-native object byte-stably: sorted keys, two-space
        indent, trailing newline, by json's C encoder."""
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
else:
    dumps = _dumps


# low-level expectation helpers ----------------------------------------------


def _fail(where: str, message: str) -> InvalidDescriptor:
    return InvalidDescriptor(f"at {where}: {message}")


def expect_int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise _fail(where, f"expected an integer, got {excerpt(v)}")
    return v


def expect_str(v, where: str) -> str:
    if not isinstance(v, str):
        raise _fail(where, f"expected a string, got {excerpt(v)}")
    return v


def expect_list(v, where: str, length: int | None = None) -> list:
    if not isinstance(v, list):
        raise _fail(where, f"expected an array, got {excerpt(v)}")
    if length is not None and len(v) != length:
        raise _fail(where, f"expected {length} entries, got {len(v)}")
    return v


def expect_obj(v, where: str) -> dict:
    if not isinstance(v, dict):
        raise _fail(where, f"expected an object, got {excerpt(v)}")
    return v


def _flag(obj: dict, key: str, default: bool) -> bool:
    """``obj[key]`` as a boolean, ``default`` when absent."""
    v = obj.get(key, default)
    if not isinstance(v, bool):
        raise _fail(f"$.{key}", f"expected a boolean, got {excerpt(v)}")
    return v


def _optional(obj: dict, key: str, parse):
    """``obj[key]`` read by ``parse``, or None when absent or null."""
    v = obj.get(key)
    return None if v is None else parse(v, f"$.{key}")


# points, lines, conics, maps -------------------------------------------------


def _ints(v, where: str, length: int | None = None) -> list[int]:
    """``v`` as a list of ``length`` integers (any length if None), checked
    in one pass; only a failing array is walked entry by entry, so that
    the error names the ``$.path[i]`` of the first bad entry."""
    if type(v) is list and (length is None or len(v) == length) and set(map(type, v)) <= _INT_ONLY:
        return v
    items = expect_list(v, where, length)
    return [int(expect_int(x, f"{where}[{i}]")) for i, x in enumerate(items)]


def _nonzero(cls, length: int, v, where: str, zero: str):
    """``cls`` of an array of ``length`` integers, not all zero."""
    coords = _ints(v, where, length)
    if not any(coords):
        raise _fail(where, zero)
    return cls(*coords)


def parse_p1_point(v, where: str) -> P1Point:
    """A point of the line: ``[a, b]``, an integer, ``"p/q"`` or ``"inf"``."""
    if isinstance(v, bool):
        raise _fail(where, "expected a point, got a boolean")
    if isinstance(v, int):
        return P1Point(v, 1)
    if isinstance(v, str):
        if v in ("inf", "oo", "infinity"):
            return P1Point.infinity()
        try:
            return P1Point.from_value(_rational(v, f"at {where}: point"))
        except (ValueError, ZeroDivisionError) as exc:
            raise _fail(where, f"cannot read {excerpt(v)} as an exact rational") from exc
    return _nonzero(P1Point, 2, v, where, "[0, 0] is not a point of the line")


def parse_p1_points(v, where: str) -> tuple[P1Point, ...]:
    # a well-formed [a, b] is read in place, without formatting its path:
    # the workloads' point lists take 1.6-2.1x as long without (Python 3.10-3.13)
    return tuple(P1Point(*x) if type(x) is list and len(x) == 2 and type(x[0]) is type(x[1]) is int
                 and (x[0] or x[1]) else parse_p1_point(x, f"{where}[{i}]")
                 for i, x in enumerate(expect_list(v, where)))


def parse_p2_point(v, where: str) -> P2Point:
    return _nonzero(P2Point, 3, v, where, "[0, 0, 0] is not a point of the plane")


def parse_line(v, where: str) -> Line:
    return _nonzero(Line, 3, v, where, "the zero form is not a line")


_CONIC_KEYS = ("xx", "yy", "zz", "xy", "xz", "yz")


def parse_conic(v, where: str) -> Conic:
    obj = expect_obj(v, where)
    unknown = sorted(set(obj) - set(_CONIC_KEYS))
    if unknown:
        raise _fail(where, f"unknown conic keys {excerpt(unknown)}")
    coeffs = tuple(expect_int(obj.get(k, 0), f"{where}.{k}") for k in _CONIC_KEYS)
    if not any(coeffs):
        raise _fail(where, "the zero form is not a conic")
    return Conic(*coeffs)


def point_pair(p: P1Point) -> list[int]:
    return [p.a, p.b]


# lattices ---------------------------------------------------------------------


def parse_divisor(v, where: str) -> DivisorClass:
    return DivisorClass(_ints(v, where))


def parse_matrix(v, where: str):
    return tuple(tuple(_ints(row, f"{where}[{i}]")) for i, row in enumerate(expect_list(v, where)))


def parse_action(v, where: str) -> LatticeAction:
    obj = expect_obj(v, where)
    r = expect_int(obj.get("r"), f"{where}.r")
    gens = expect_list(obj.get("generators", []), f"{where}.generators")
    matrices = tuple(parse_matrix(g, f"{where}.generators[{i}]") for i, g in enumerate(gens))
    return LatticeAction(BlowupLattice(r), matrices)


def matrix_json(m) -> list[list[int]]:
    return [list(row) for row in m]


def divisor_json(d: DivisorClass) -> list[int]:
    return list(d.coeffs)


# triplets and bundle models ---------------------------------------------------


def parse_triplet(v, where: str) -> RamificationTriplet:
    sets = expect_list(v, where, 3)
    parsed = [parse_p1_points(s, f"{where}[{i}]") for i, s in enumerate(sets)]
    return validate_triplet(*parsed)


def triplet_json(t: RamificationTriplet) -> list[list[list[int]]]:
    return [[point_pair(p) for p in s] for s in t.sets]


def parse_certificate(v, where: str) -> RealizationCertificate:
    from .bundles import RealizationCertificate

    obj = expect_obj(v, where)
    source = expect_str(obj.get("source"), f"{where}.source")
    secs = expect_list(obj.get("sections"), f"{where}.sections", 4)
    sections = tuple(parse_divisor(s, f"{where}.sections[{i}]") for i, s in enumerate(secs))
    matrix = parse_matrix(obj.get("matrix"), f"{where}.matrix")
    return RealizationCertificate(source, sections, matrix)


def certificate_json(cert: RealizationCertificate) -> dict:
    return {
        "source": cert.source,
        "sections": [divisor_json(s) for s in cert.section_classes],
        "matrix": matrix_json(cert.intersection_matrix),
    }


def z22_model_json(model: Z22BundleModel) -> dict:
    doc = {
        "kind": "z22",
        "triplet": triplet_json(model.triplet),
        "profile": list(model.profile),
        "k": model.k,
        "k_squared": model.k_squared,
        "generators": [matrix_json(g) for g in model.generators],
    }
    if model.certificate is not None:
        doc["certificate"] = certificate_json(model.certificate)
    return doc


def exceptional_model_json(model: ExceptionalBundleModel) -> dict:
    return {
        "kind": "exceptional",
        "delta": [point_pair(p) for p in model.delta],
        "n": model.n,
        "k_squared": model.k_squared,
        "sections": [divisor_json(s) for s in model.section_classes],
        "swap": matrix_json(model.swap),
        "aut": {
            "kernel": model.KERNEL_TAG,
            "stabilizer_order": None if model.stabilizer is None else len(model.stabilizer),
            "equals_full_automorphisms": model.equals_full_automorphisms,
        },
    }


def _parse_lines(obj: dict, count: int) -> tuple[Line, ...]:
    lines = expect_list(obj.get("lines"), "$.lines", count)
    return tuple(parse_line(l, f"$.lines[{i}]") for i, l in enumerate(lines))


def parse_model(obj: dict, kind: str) -> Z22BundleModel | ExceptionalBundleModel:
    """Build the model of a document's top-level object for one ``construct``
    kind: ``four-lines``, ``three-lines-conic``, ``z22`` or ``exceptional``."""
    from .bundles import (build_from_four_lines, build_from_three_lines_conic,
                          exceptional_from_delta, z22_from_triplet)

    if kind == "four-lines":
        return build_from_four_lines(
            _parse_lines(obj, 4), parse_p2_point(obj.get("center"), "$.center"))
    if kind == "three-lines-conic":
        return build_from_three_lines_conic(
            _parse_lines(obj, 3),
            parse_conic(obj.get("conic"), "$.conic"),
            parse_p2_point(obj.get("d1"), "$.d1"),
            parse_p2_point(obj.get("d2"), "$.d2"))
    if kind == "z22":
        return z22_from_triplet(parse_triplet(obj.get("triplet"), "$.triplet"),
                                _optional(obj, "certificate", parse_certificate))
    return exceptional_from_delta(parse_p1_points(obj.get("delta"), "$.delta"))


# descriptors ------------------------------------------------------------------


def parse_descriptor(doc) -> GSurfaceDescriptor:
    """Read a classify input; extra informational keys are ignored."""
    from .classifier import ExceptionalDescriptor, HirzebruchDescriptor, Z22Descriptor

    obj = expect_obj(doc, "$")
    kind = expect_str(obj.get("kind"), "$.kind")
    if kind == "del-pezzo":
        return _parse_del_pezzo(obj)
    if kind == "hirzebruch":
        return HirzebruchDescriptor(n=expect_int(obj.get("n"), "$.n"))
    if kind == "exceptional":
        return ExceptionalDescriptor(parse_model(obj, kind))
    if kind == "z22":
        return Z22Descriptor(parse_model(obj, kind))
    raise _fail("$.kind", f"unknown descriptor kind {excerpt(kind)}")


def _parse_del_pezzo(obj: dict) -> DelPezzoDescriptor:
    from .classifier import DelPezzoDescriptor

    degree = expect_int(obj.get("degree"), "$.degree")
    p1xp1 = _flag(obj, "p1xp1", False)
    action = _optional(obj, "action", parse_action)
    report = _optional(obj, "fixed_point_report", expect_str)
    cubic = _optional(obj, "cubic_family", expect_str)
    row = obj.get("quartic_row")
    if row is not None:
        pair = expect_list(row, "$.quartic_row", 2)
        row = (expect_int(pair[0], "$.quartic_row[0]"),
               expect_str(pair[1], "$.quartic_row[1]"))
    return DelPezzoDescriptor(
        degree=degree, p1xp1=p1xp1, action=action, fixed_point_report=report,
        cubic_family=cubic, quartic_row=row,
        restrictions_satisfied=_flag(obj, "restrictions_satisfied", True),
        iso_class_tag=_optional(obj, "iso_class_tag", expect_str),
        parameter=_optional(obj, "parameter", expect_str))


# verdicts and reports ---------------------------------------------------------


def invariant_json(invariant):
    if isinstance(invariant, RamificationTriplet):
        return {"triplet": triplet_json(invariant)}
    if isinstance(invariant, tuple):
        return {"delta": [point_pair(p) for p in invariant]}
    return invariant


def verdict_json(v: Verdict) -> dict:
    if v.outcome == "maximal":
        doc = {"outcome": "maximal", "family": v.family,
               "invariant": invariant_json(v.invariant)}
        if v.subfamily is not None:
            doc["subfamily"] = v.subfamily
        return doc
    if v.outcome == "not_maximal":
        return {
            "outcome": "not_maximal",
            "chain": [
                {"move": s.move, "detail": s.detail, "k_squared": s.k_squared}
                for s in v.chain
            ],
        }
    return {"outcome": "indeterminate", "reason": v.reason}


def link_report_json(rep: LinkReport) -> dict:
    return {
        "family": rep.family,
        "k_squared": rep.k_squared,
        "links": [
            {
                "link_type": e.link_type,
                "status": e.status,
                "reason": e.reason,
                "witness": None if e.witness is None else list(e.witness),
            }
            for e in rep.entries
        ],
    }
