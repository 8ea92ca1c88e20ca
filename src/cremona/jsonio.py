"""JSON schemas for descriptors, models, verdicts and reports.

Parsing is strict: integers must be JSON integers (no floats), an object
refuses each key that its reader does not read (``parse_object``), points
may be given unreduced, and every error names the offending location with
a ``$.path[i]`` pointer.  An integer array (a point, line, divisor or matrix
row) is accepted whole when one C-level type check over it passes; only an
array that fails is walked entry by entry, to name the first bad entry, so
well-formed input builds no paths.  In a triplet, where every point lies in
two sets, equal ``[a, b]`` pairs are read once and share one point.
Emission is byte-stable: keys are sorted, numbers are plain integers, exact
rationals are ``"p/q"`` strings, indents are two spaces, and every document
ends with a newline.  The bytes are those of
``json.dumps(obj, sort_keys=True, indent=2)``; from Python 3.13 on that
call writes them, since json encodes ``indent`` in C there, and before
3.13 a private writer does, since any ``indent`` sends json to its
pure-Python encoder, which takes about three times as long (see
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


def _expect(cls: type, noun: str):
    """The reader of a JSON value of exact type ``cls`` (no bool is an int)."""
    def expect(v, where: str):
        if type(v) is not cls:
            raise _fail(where, f"expected {noun}, got {excerpt(v)}")
        return v
    return expect


expect_int, expect_str, expect_obj, expect_bool = (
    _expect(int, "an integer"), _expect(str, "a string"), _expect(dict, "an object"),
    _expect(bool, "a boolean"))


def expect_list(v, where: str, length: int | None = None) -> list:
    if not isinstance(v, list):
        raise _fail(where, f"expected an array, got {excerpt(v)}")
    if length is not None and len(v) != length:
        raise _fail(where, f"expected {length} entries, got {len(v)}")
    return v


def _optional(parse, default=None):
    """``parse``, with an absent or null value read as ``default``."""
    return lambda v, where: default if v is None else parse(v, where)


def _array(read, length: int | None = None):
    """The reader of an array of ``length`` entries (any if None), each by ``read``."""
    def array(v, where: str) -> tuple:
        return tuple(read(x, f"{where}[{i}]") for i, x in enumerate(expect_list(v, where, length)))
    return array


def parse_object(v, where: str, readers: dict, what: str) -> list:
    """The values of the object ``v``, one per key of ``readers`` in its order,
    each read by its reader at ``where.key`` (an absent key as null); the
    least other key that is not null is refused as not read by ``what``."""
    obj = expect_obj(v, where)
    if not obj.keys() <= readers.keys():
        unread = [k for k in obj.keys() - readers.keys() if obj[k] is not None]
        if unread:
            raise _fail(f"{where}.{excerpt(min(unread), str)}", f"not read by {what}")
    return [read(obj.get(k), f"{where}.{k}") for k, read in readers.items()]


# points, lines, conics, maps -------------------------------------------------


def _ints(v, where: str, length: int | None = None) -> tuple[int, ...]:
    """``v`` as a tuple of ``length`` integers (any length if None), checked
    in one pass; only a failing array is walked entry by entry, so that
    the error names the ``$.path[i]`` of the first bad entry."""
    if type(v) is list and (length is None or len(v) == length) and set(map(type, v)) <= _INT_ONLY:
        return tuple(v)
    items = expect_list(v, where, length)
    return tuple(int(expect_int(x, f"{where}[{i}]")) for i, x in enumerate(items))


def _nonzero(cls, coords, where: str, zero: str):
    """``cls`` of ``coords``, which are not all zero."""
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
    return _nonzero(P1Point, _ints(v, where, 2), where, "[0, 0] is not a point of the line")


def parse_p1_points(v, where: str) -> tuple[P1Point, ...]:
    # a well-formed [a, b] is read in place, without formatting its path:
    # the workloads' point lists take 1.6-2.1x as long without (Python 3.10-3.13)
    return tuple(P1Point(*x) if type(x) is list and len(x) == 2 and type(x[0]) is type(x[1]) is int
                 and (x[0] or x[1]) else parse_p1_point(x, f"{where}[{i}]")
                 for i, x in enumerate(expect_list(v, where)))


def parse_p2_point(v, where: str) -> P2Point:
    return _nonzero(P2Point, _ints(v, where, 3), where, "[0, 0, 0] is not a point of the plane")


def parse_line(v, where: str) -> Line:
    return _nonzero(Line, _ints(v, where, 3), where, "the zero form is not a line")


def parse_conic(v, where: str) -> Conic:
    return _nonzero(Conic, parse_object(v, where, _CONIC, "the conic"), where, "the zero form is not a conic")


def point_pair(p: P1Point) -> list[int]:
    return [p.a, p.b]


# lattices ---------------------------------------------------------------------


def parse_divisor(v, where: str) -> DivisorClass:
    return DivisorClass(_ints(v, where))


parse_matrix = _array(_ints)


def parse_action(v, where: str) -> LatticeAction:
    r, generators = parse_object(v, where, _ACTION, "the lattice action")
    return LatticeAction(BlowupLattice(r), generators)


def matrix_json(m) -> list[list[int]]:
    return [list(row) for row in m]


def divisor_json(d: DivisorClass) -> list[int]:
    return list(d.coeffs)


# triplets and bundle models ---------------------------------------------------


def parse_triplet(v, where: str) -> RamificationTriplet:
    """Three branch sets of points, checked by ``validate_triplet``.  Every
    point lies in two sets, so each distinct well-formed ``[a, b]`` pair is
    built once and shared; any other entry is read by ``parse_p1_point``."""
    # one point per distinct pair: with a point per entry, parse_triplet takes
    # 1.10x as long on the klein-four-sweep triplets (Python 3.11.7, shared 2-vCPU VM)
    built: dict[tuple[int, int], P1Point] = {}
    sets = []
    for i, s in enumerate(expect_list(v, where, 3)):
        pts = []
        for j, x in enumerate(expect_list(s, f"{where}[{i}]")):
            if type(x) is list and len(x) == 2 and type(x[0]) is type(x[1]) is int and (x[0] or x[1]):
                pair = x[0], x[1]
                if pair not in built:
                    built[pair] = P1Point(*pair)
                pts.append(built[pair])
            else:
                pts.append(parse_p1_point(x, f"{where}[{i}][{j}]"))
        sets.append(pts)
    return validate_triplet(*sets)


def triplet_json(t: RamificationTriplet) -> list[list[list[int]]]:
    return [[point_pair(p) for p in s] for s in t.sets]


def parse_certificate(v, where: str) -> RealizationCertificate:
    from .bundles import RealizationCertificate

    return RealizationCertificate(*parse_object(v, where, _CERTIFICATE, "the certificate"))


def certificate_json(cert: RealizationCertificate) -> dict:
    return {
        "source": cert.source,
        "sections": [divisor_json(s) for s in cert.section_classes],
        "matrix": matrix_json(cert.intersection_matrix),
    }


def z22_model_json(model: Z22BundleModel) -> dict:
    doc = {"kind": "z22", "triplet": triplet_json(model.triplet),
           **{k: emit(model) for k, emit in CONSTRUCT_KEYS["z22"].items()}}
    if model.certificate is not None:
        doc["certificate"] = certificate_json(model.certificate)
    return doc


def exceptional_model_json(model: ExceptionalBundleModel) -> dict:
    return {"kind": "exceptional", "delta": [point_pair(p) for p in model.delta],
            **{k: emit(model) for k, emit in CONSTRUCT_KEYS["exceptional"].items()}}


#: the emitter of each key, sorted, of the two documents above that ``classify``
#: does not read: the model is rebuilt from ``triplet`` and ``certificate`` or
#: from ``delta``, and each key given must be what construct writes for it (the
#: least is refused first), so only the keys given are emitted
CONSTRUCT_KEYS = {
    "z22": {
        "generators": lambda m: [matrix_json(g) for g in m.generators],
        "k": lambda m: m.k,
        "k_squared": lambda m: m.k_squared,
        "profile": lambda m: list(m.profile),
    },
    "exceptional": {
        "aut": lambda m: {
            "kernel": m.KERNEL_TAG,
            "stabilizer_order": None if m.stabilizer is None else len(m.stabilizer),
            "equals_full_automorphisms": m.equals_full_automorphisms,
        },
        "k_squared": lambda m: m.k_squared,
        "n": lambda m: m.n,
        "sections": lambda m: [divisor_json(s) for s in m.section_classes],
        "swap": lambda m: matrix_json(m.swap),
    },
}


# command inputs and descriptors ----------------------------------------------


def _quartic_row(v, where: str) -> tuple[int, str]:
    pair = expect_list(v, where, 2)
    return expect_int(pair[0], f"{where}[0]"), expect_str(pair[1], f"{where}[1]")


#: one reader per descriptor field; an optional field that is absent or
#: null takes the descriptor's default
_READERS = {
    "n": expect_int, "delta": parse_p1_points, "triplet": parse_triplet,
    "certificate": _optional(parse_certificate), "action": _optional(parse_action),
    "quartic_row": _optional(_quartic_row),
    **dict.fromkeys(("p1xp1", "restrictions_satisfied"), _optional(expect_bool)),
    **dict.fromkeys(("fixed_point_report", "cubic_family", "parameter", "iso_class_tag"),
                    _optional(expect_str)),
}

#: the reader of each key of each object that ``parse_object`` reads, in the order the values
#: are passed on; a ``construct`` input's builder is picked from ``bundles`` when called
_CONIC = dict.fromkeys(("xx", "yy", "zz", "xy", "xz", "yz"), _optional(expect_int, 0))
_ACTION = {"r": expect_int, "generators": _optional(_array(parse_matrix), ())}
_CERTIFICATE = {"source": expect_str, "sections": _array(parse_divisor, 4), "matrix": parse_matrix}
_CONSTRUCT = {
    "four-lines": ({"lines": _array(parse_line, 4), "center": parse_p2_point},
                   lambda b: b.build_from_four_lines),
    "three-lines-conic": ({"lines": _array(parse_line, 3), "conic": parse_conic, "d1": parse_p2_point,
                           "d2": parse_p2_point}, lambda b: b.build_from_three_lines_conic),
    "z22": ({k: _READERS[k] for k in ("triplet", "certificate")}, lambda b: b.z22_from_triplet),
    "exceptional": ({"delta": parse_p1_points}, lambda b: b.exceptional_from_delta),
}
CANONICAL = {"triplet": {"triplet": parse_triplet}, "delta": {"delta": parse_p1_points}}
GENUS = {"r": expect_int, "divisor": parse_divisor}


def parse_model(doc, kind: str) -> Z22BundleModel | ExceptionalBundleModel:
    """Build the model of a ``construct <kind>`` input, by ``cremona.bundles``."""
    from . import bundles

    readers, builder = _CONSTRUCT[kind]
    return builder(bundles)(*parse_object(doc, "$", readers, f"construct {kind}"))


def _same_json(given, written) -> bool:
    """Whether sorted ``json.dumps`` would write the same text for both: 29 us,
    not 51, on ``construct four-lines`` output (Python 3.11.7, shared 2-vCPU VM)."""
    if written.__class__ is list:
        return (given.__class__ is list and len(given) == len(written)
                and all(map(_same_json, given, written)))
    if written.__class__ is dict:
        return (given.__class__ is dict and given.keys() == written.keys()
                and all(_same_json(given[k], v) for k, v in written.items()))
    return given.__class__ is written.__class__ and given == written


def parse_descriptor(doc) -> GSurfaceDescriptor:
    """Read a classify input by its row of ``classifier.RULES``, which
    ``kind``, and ``degree`` for a del Pezzo surface, name: each field the
    row reads is read by its reader, and every other key that is not null is
    refused at its path, except that a model document's ``CONSTRUCT_KEYS``
    must be, as JSON, what ``construct`` writes for the rebuilt model.
    """
    from .classifier import (DelPezzoDescriptor, ExceptionalDescriptor,
                             HirzebruchDescriptor, Z22Descriptor, rule)

    obj = expect_obj(doc, "$")
    kind = expect_str(obj.get("kind"), "$.kind")
    degree = expect_int(obj.get("degree"), "$.degree") if kind == "del-pezzo" else None
    known = {"kind", "degree"} if kind == "del-pezzo" else {"kind", *CONSTRUCT_KEYS.get(kind, ())}
    fields, _decide = rule(kind, degree, [k for k, v in obj.items() if v is not None and k not in known])
    if kind in CONSTRUCT_KEYS:
        model = parse_model({k: obj[k] for k in fields if k in obj}, kind)
        for k, emit in CONSTRUCT_KEYS[kind].items():
            if obj.get(k) is not None:
                written = emit(model)
                if not _same_json(obj[k], written):
                    raise _fail(f"$.{k}", f"construct writes {excerpt(written)}, not {excerpt(obj[k])}")
        return (Z22Descriptor if kind == "z22" else ExceptionalDescriptor)(model)
    values = {name: v for name in fields if (v := _READERS[name](obj.get(name), f"$.{name}")) is not None}
    return HirzebruchDescriptor(**values) if degree is None else DelPezzoDescriptor(degree, **values)


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
