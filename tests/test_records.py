"""The records against the frozen dataclasses they replaced.

``reference_kernel`` keeps the dataclass definitions under the same
names.  Built from the same fields, an old and a new record must agree
on ``==``, ``hash``, ``repr``, field access, ``<`` where it is defined,
copying and pickling, and on the error raised for a rejected input.  The ten validated value
types are slotted classes, so two records of different types never
compare equal, as before.  The eleven plain records are NamedTuples,
which compare equal to any tuple with the same items; the last test
shows that no set or dict the package builds mixes two record types, or
a record and a plain tuple, so that difference never reaches a result.
"""

import copy
import dataclasses
import itertools
import json
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cremona import bundles, classifier, geometry, jsonio, picard, square_class
from cremona.cli import main
from cremona.corpus import cubic_coxeter_matrix, four_lines_model

import reference_kernel as old

VALIDATED = {
    "P1Point": geometry, "P2Point": geometry, "Line": geometry, "Conic": geometry,
    "Mobius": geometry, "DivisorClass": picard, "BlowupLattice": picard,
    "LatticeAction": picard, "FiberedMarking": picard, "RamificationTriplet": square_class,
}
PLAIN = {
    "RealizationCertificate": bundles, "Z22BundleModel": bundles,
    "DelPezzoVerdict": bundles, "ExceptionalBundleModel": bundles, "HalphenReport": bundles,
    "DelPezzoDescriptor": classifier, "HirzebruchDescriptor": classifier,
    "ExceptionalDescriptor": classifier, "Z22Descriptor": classifier,
    "Verdict": classifier, "LinkReport": classifier,
}
ORDERED = {"P1Point", "P2Point", "DivisorClass"}
NEW = {name: getattr(module, name) for name, module in {**VALIDATED, **PLAIN}.items()}
OLD = {name: getattr(old, name) for name in NEW}


# raw fields; ``build`` turns them into a record of either generation ----------

ints = st.integers(-6, 6)
coords = st.one_of(ints, st.booleans(), st.just("3"), st.just("x"), st.none())
p1_raw = st.tuples(ints, ints)
p1_list = st.lists(p1_raw, max_size=5)


def matrices(n):
    return st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n), min_size=n, max_size=n)


def _swap(n, i, j):
    return [[int(c == (j if r == i else i if r == j else r)) for c in range(n)] for r in range(n)]


@st.composite
def action_raw(draw):
    r = draw(st.integers(1, 3))
    swaps = st.tuples(st.integers(1, r), st.integers(1, r)).map(lambda ij: _swap(r + 1, *ij))
    gens = draw(st.lists(st.one_of(swaps, matrices(r + 1), matrices(r)), max_size=2))
    return r, gens


plain_value = st.one_of(ints, st.text(max_size=3), st.none(), st.tuples(ints, ints),
                        st.lists(ints, max_size=2))

RAW = {
    "P1Point": st.tuples(coords, coords),
    "P2Point": st.tuples(coords, coords, coords),
    "Line": st.tuples(coords, coords, coords),
    "Conic": st.tuples(*[ints] * 6),
    "Mobius": st.one_of(matrices(2), matrices(3), st.lists(st.lists(ints, max_size=3), max_size=3)),
    "DivisorClass": st.lists(st.one_of(ints, st.booleans()), max_size=5),
    "BlowupLattice": st.integers(-2, 15),
    "LatticeAction": action_raw(),
    "FiberedMarking": st.integers(-2, 15),
    "RamificationTriplet": st.lists(p1_list, min_size=3, max_size=3),
}
for _name, _cls in NEW.items():
    if _name in PLAIN:
        RAW[_name] = st.lists(plain_value, min_size=len(OLD[_name].__dataclass_fields__),
                              max_size=len(OLD[_name].__dataclass_fields__))


def build(ns, name, raw):
    cls = ns[name]
    if name in PLAIN:
        return cls(*raw)
    if name in ("P1Point", "P2Point", "Line", "Conic"):
        return cls(*raw)
    if name in ("Mobius", "DivisorClass", "BlowupLattice"):
        return cls(raw)
    if name == "LatticeAction":
        r, gens = raw
        return cls(ns["BlowupLattice"](r), [tuple(map(tuple, g)) for g in gens])
    if name == "FiberedMarking":
        return cls(ns["BlowupLattice"](raw))
    return cls(tuple(tuple(ns["P1Point"](*p) for p in s) for s in raw))


def outcome(ns, name, raw):
    """The record, or the type and message of the error that rejects the fields."""
    try:
        return build(ns, name, raw)
    except Exception as exc:
        return (type(exc), str(exc))


def hash_or_error(x):
    try:
        return hash(x)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(NEW))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_record_matches_the_dataclass(name, data):
    raw1, raw2 = data.draw(RAW[name]), data.draw(RAW[name])
    o1, o2 = outcome(OLD, name, raw1), outcome(OLD, name, raw2)
    n1, n2 = outcome(NEW, name, raw1), outcome(NEW, name, raw2)
    for o, n in ((o1, n1), (o2, n2)):
        if isinstance(o, tuple) and isinstance(o[0], type):  # rejected
            assert n == o
            continue
        assert type(n) is NEW[name]
        assert repr(n) == repr(o)
        assert hash_or_error(n) == hash_or_error(o)
        for field in o.__dataclass_fields__:
            assert repr(getattr(n, field)) == repr(getattr(o, field))
            with pytest.raises(AttributeError):
                setattr(n, field, 0)
        with pytest.raises(AttributeError):
            n.extra = 0
        assert n == n == copy.deepcopy(n) == pickle.loads(pickle.dumps(n))
    if isinstance(o1, OLD[name]) and isinstance(o2, OLD[name]):
        assert (n1 == n2) == (o1 == o2)
        assert (n1 != n2) == (o1 != o2)
        if name in ORDERED:
            assert (n1 < n2) == (o1 < o2)
            assert (n2 < n1) == (o2 < o1)


def test_every_record_is_compared():
    assert len(NEW) == 21
    assert all(dataclasses.is_dataclass(cls) for cls in OLD.values())
    assert not any(dataclasses.is_dataclass(cls) for cls in NEW.values())


def _cross_type_check(first, second, raw1, raw2):
    """Compare two records of different types; False if the fields are rejected."""
    n1, n2 = outcome(NEW, first, raw1), outcome(NEW, second, raw2)
    o1, o2 = outcome(OLD, first, raw1), outcome(OLD, second, raw2)
    if not (isinstance(o1, OLD[first]) and isinstance(o2, OLD[second])):
        return False
    assert o1 != o2
    if first in VALIDATED or second in VALIDATED:
        assert n1 != n2 and not n1 == n2
    else:
        # two NamedTuples are equal exactly when their items are
        assert (n1 == n2) == (tuple(n1) == tuple(n2))
    if first in VALIDATED:
        assert n1 != tuple(getattr(n1, f) for f in o1.__dataclass_fields__)
    return True


#: fields that make records of different types as alike as possible
ALIKE = {
    "P1Point": (1, 2), "P2Point": (1, 2, 3), "Line": (1, 2, 3), "Conic": (1, 2, 3, 0, 0, 0),
    "Mobius": [[1, 2], [3, 4]], "DivisorClass": [1, 2, 3], "BlowupLattice": 1,
    "LatticeAction": (1, []), "FiberedMarking": 1,
    "RamificationTriplet": [[(0, 1), (1, 2)], [(0, 1), (1, 0)], [(1, 2), (1, 0)]],
    **{name: [1] * len(OLD[name].__dataclass_fields__) for name in PLAIN},
}


@pytest.mark.parametrize("first, second", list(itertools.combinations(sorted(NEW), 2)))
def test_records_of_two_types(first, second):
    assert _cross_type_check(first, second, ALIKE[first], ALIKE[second])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_drawn_records_of_two_types(data):
    first, second = data.draw(st.sampled_from(list(itertools.combinations(sorted(NEW), 2))))
    _cross_type_check(first, second, data.draw(RAW[first]), data.draw(RAW[second]))


def test_records_of_two_types_with_equal_items():
    assert geometry.P2Point(1, 2, 3) != geometry.Line(1, 2, 3)
    assert geometry.P1Point(1, 2) != (1, 2)
    assert picard.BlowupLattice(3) != (3,)
    assert classifier.HirzebruchDescriptor(2) == (2,)  # a NamedTuple, as documented


# no set or dict of the package mixes record types --------------------------

_CUBIC = {"kind": "del-pezzo", "degree": 3, "fixed_point_report": "all-on-exceptional",
          "action": {"r": 6, "generators": [jsonio.matrix_json(cubic_coxeter_matrix())]}}

RUNS = [
    (["classify", "--links"], {"kind": "hirzebruch", "n": 3}),
    (["classify", "--links"], {"kind": "exceptional", "delta": [0, 1, 2, "inf", -1, "1/2"]}),
    (["classify"], {"kind": "exceptional", "delta": [0, 1]}),
    (["classify", "--links"], {**_CUBIC, "cubic_family": "s4-lambda", "parameter": "-2/3"}),
    (["classify"], {**_CUBIC, "fixed_point_report": "off-exceptional"}),
    (["classify", "--links"], {"kind": "del-pezzo", "degree": 2, "quartic_row": [48, "2xS4"]}),
    (["classify"], {"kind": "z22", "triplet": [[0, 1], [0, 2], [1, 2]]}),
    (["classify"], {"kind": "z22", "triplet": [[0, 1, 2, 3], [0, 1, 4, 5], [2, 3, 4, 5]]}),
    (["classify", "--links"], jsonio.z22_model_json(four_lines_model())),
    (["construct", "four-lines"], {"lines": [[1, 0, -1], [0, 1, -1], [1, 1, -3], [1, -1, -2]],
                                   "center": [0, 0, 1]}),
    (["construct", "three-lines-conic"], {"lines": [[1, -1, 2], [2, 1, -3], [4, -1, 0]],
                                          "conic": {"xx": 1, "yz": -1},
                                          "d1": [1, 7, 3], "d2": [0, 0, 1]}),
    (["construct", "exceptional"], {"delta": [0, 1, -1, "inf"]}),
    (["lattice", "invariant-rank"], {"r": 6, "generators": [
        jsonio.matrix_json(cubic_coxeter_matrix())]}),
    (["lattice", "minus-one-count", "--r", "5", "--list"], None),
    (["lattice", "genus"], {"r": 3, "divisor": [3, 1, 1, 1]}),
    (["canonical", "triplet"], {"triplet": [[0, 1], [0, "1/2"], [1, "1/2"]]}),
    (["canonical", "delta"], {"delta": [0, 1, -1, 2, "inf", "1/3"]}),
    (["verify", "--suite", "all"], None),
]


def _kind(x):
    t = type(x)
    if t in _RECORD_TYPES:
        return t.__name__
    return "tuple" if isinstance(x, tuple) else None


_RECORD_TYPES = set(NEW.values())


def test_no_set_or_dict_mixes_records(tmp_path):
    """Every set or dict a package function holds in a local or returns, on
    every CLI command and the internal suites, has keys of one record type,
    or no record among its keys."""
    mixed, seen = [], set()

    def check(container, where):
        if isinstance(container, (set, frozenset, dict)):
            kinds = {_kind(k) for k in container} - {None}
            seen.update(kinds)
            if len(kinds) > 1:
                mixed.append((where, sorted(kinds)))

    def profile(frame, event, arg):
        if event != "return" or not frame.f_globals.get("__name__", "").startswith("cremona"):
            return
        where = f"{frame.f_globals['__name__']}.{frame.f_code.co_name}"
        check(arg, where)
        for value in frame.f_locals.values():
            check(value, where)

    for i, (argv, doc) in enumerate(RUNS):
        path = tmp_path / f"in{i}.json"
        path.write_text(json.dumps(doc))
        args = argv + ["--output", str(tmp_path / "out.json")]
        if doc is not None:
            args += ["--input", str(path)]
        sys.setprofile(profile)
        try:
            code = main(args)
        finally:
            sys.setprofile(None)
        assert code in (0, 2), argv
    assert mixed == []
    assert {"P1Point", "P2Point", "Line", "DivisorClass", "tuple"} <= seen
