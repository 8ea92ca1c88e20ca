"""The four workloads: seeded inputs, each paired with its output check.

Inputs are generated here with the benchmark's own arithmetic, without
importing ``cremona``, so the program receives only JSON documents.  An
operation is one ``cremona`` command line; a two-stage operation is two
commands joined by a pipe.  The golden descriptors are literal JSON and
their reports are compared with ``tests/golden_verdicts.json`` in place.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from checks import point, require

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "golden_verdicts.json"

WORKLOADS = ("klein-four-sweep", "branch-delta", "model-build", "cli-cold")


@dataclass(frozen=True)
class Op:
    """One timed operation: ``stages`` are CLI argument lists, piped in order."""

    name: str
    stages: tuple[tuple[str, ...], ...]
    stdin: str
    check: Callable[[int, str], None]


def _op(name, argv, doc, check) -> Op:
    text = "" if doc is None else json.dumps(doc)
    return Op(name, (tuple(argv),), text, check)


# golden descriptors ---------------------------------------------------------------

_CUBIC_SIMPLE_ROOTS = (
    (0, 1, -1, 0, 0, 0, 0),
    (0, 0, 1, -1, 0, 0, 0),
    (0, 0, 0, 1, -1, 0, 0),
    (0, 0, 0, 0, 1, -1, 0),
    (0, 0, 0, 0, 0, 1, -1),
    (1, -1, -1, -1, 0, 0, 0),
)


def reflection(root):
    """x -> x + (x . root) root on the lattice with form diag(1, -1, ...)."""
    n = len(root)
    cols = []
    for j in range(n):
        e = [int(i == j) for i in range(n)]
        c = checks.dot(e, root)
        cols.append([x + c * r for x, r in zip(e, root)])
    return [list(row) for row in zip(*cols)]


def weyl_element(word):
    m = checks.identity(7)
    for i in word:
        m = checks.mat_mul(reflection(_CUBIC_SIMPLE_ROOTS[i]), m)
    return m


def _coxeter():
    return weyl_element(range(6))


def _cubic(generator, report, family, parameter=None):
    doc = {"kind": "del-pezzo", "degree": 3,
           "action": {"r": 6, "generators": [generator]},
           "fixed_point_report": report, "cubic_family": family}
    if parameter is not None:
        doc["parameter"] = parameter
    return doc


#: the corpus quadrilateral's certified model, as ``construct four-lines``
#: prints it for the lines and center of FOUR_LINES below
_FAMILY_11 = {
    "kind": "z22",
    "triplet": [[[1, -1], [1, 2], [2, 1], [3, 1]], [[1, -1], [1, 1], [2, 1], [5, 1]],
                [[1, 2], [1, 1], [3, 1], [5, 1]]],
    "certificate": {
        "source": "four-lines",
        "sections": [[1, 0, -1, -1, -1, 0, 0, 0], [1, 0, 0, 0, -1, -1, -1, 0],
                     [1, 0, 0, -1, 0, -1, 0, -1], [1, 0, -1, 0, 0, 0, -1, -1]],
        "matrix": [[-2, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]],
    },
}


def golden_descriptors() -> dict[str, dict]:
    """The seventeen descriptors of ``cremona.corpus`` as classify input."""
    c = _coxeter()
    c4 = checks.mat_mul(checks.mat_mul(c, c), checks.mat_mul(c, c))
    dp = lambda degree, **kw: {"kind": "del-pezzo", "degree": degree, **kw}  # noqa: E731
    return {
        "family-01": dp(9),
        "family-02": dp(8, p1xp1=True),
        "family-03": dp(6),
        "family-04": {"kind": "hirzebruch", "n": 2},
        "family-05": {"kind": "exceptional", "delta": [0, 1, 2, 3]},
        "family-06": dp(5),
        "family-07": dp(4, iso_class_tag="generic"),
        "family-08": _cubic(c, "all-on-exceptional", "triple-cover", "0"),
        "family-09": dp(2, quartic_row=[336, "2xL2(7)"]),
        "family-10": dp(1, iso_class_tag="generic"),
        "family-11": _FAMILY_11,
        "reduce-hirzebruch-1": {"kind": "hirzebruch", "n": 1},
        "reduce-degree-7": dp(7),
        "reduce-degree-8": dp(8),
        "reduce-cubic-extra-fixed-point": _cubic(c4, "off-exceptional", "extra-fixed-point"),
        "reduce-degree-2-no-row": dp(2),
        "reduce-exceptional-two-fibers": {"kind": "exceptional", "delta": [0, 1]},
    }


def load_golden() -> dict:
    """Descriptor -> (classify input, golden verdict)."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    descriptors = golden_descriptors()
    if set(golden) != set(descriptors):
        raise SystemExit(f"{GOLDEN_PATH} names other descriptors than the benchmark")
    return {key: (descriptors[key], golden[key]) for key in golden}


def golden_op(golden, key, links=False, prefix="") -> Op:
    descriptor, verdict = golden[key]
    expected = checks.dumps(verdict)

    def check(rc, out):
        if not links:
            require(rc == (2 if verdict["outcome"] == "indeterminate" else 0),
                    f"exit code {rc}")
            require(out == expected, f"{key}: report differs from the golden bytes")
            return
        doc = checks.report(rc, out)
        found = doc.pop("links", None)
        require(checks.dumps(doc) == expected, f"{key}: verdict differs from the golden bytes")
        require(found is not None, f"{key}: no link report")
        checks.check_links(found, verdict["family"])

    argv = ["classify", "--links"] if links else ["classify"]
    return _op(f"{prefix}golden {key}{' --links' if links else ''}", argv, descriptor, check)


# seeded geometry ------------------------------------------------------------------


def random_mobius(rng):
    while True:
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        if a * d - b * c:
            return a, b, c, d


def moved(points, m):
    a, b, c, d = m
    return [point((a * p + b * q, c * p + d * q)) for p, q in points]


def standard_triplet(profile):
    """Branch sets on 0..k-1 in three overlap blocks, as ``triplet_from_profile``."""
    a1, a2, a3 = profile
    m12, m13 = a1 + a2 - a3, a1 + a3 - a2
    pts = [(i, 1) for i in range(a1 + a2 + a3)]
    b12, b13, b23 = pts[:m12], pts[m12:m12 + m13], pts[m12 + m13:]
    return [b12 + b13, b12 + b23, b13 + b23]


def realizable_profiles(max_k):
    """Profiles a1 <= a2 <= a3 with a3 <= a1 + a2 and a1 + a2 + a3 <= max_k."""
    return [(a1, a2, a3)
            for a1 in range(1, max_k + 1) for a2 in range(a1, max_k + 1)
            for a3 in range(a2, min(a1 + a2, max_k - a1 - a2) + 1)]


def random_points(rng, n):
    """n distinct rational points with small numerators and denominators."""
    pts = set()
    while len(pts) < n:
        pts.add(point((rng.randint(-40, 40), rng.randint(1, 9))))
    return sorted(pts)


def random_gl3(rng):
    while True:
        m = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        if _det3(m):
            return m


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _adj3(m):
    """Adjugate: adj(m) @ m = det(m) I."""
    minors = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows = [r for k, r in enumerate(m) if k != i]
            sub = [[x for l, x in enumerate(r) if l != j] for r in rows]
            minors[i][j] = (-1) ** (i + j) * (sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0])
    return [list(col) for col in zip(*minors)]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def move_point(a, p):
    return [sum(x * y for x, y in zip(row, p)) for row in a]


def move_line(a, line):
    """A line l (l . x = 0) goes to l adj(a), so that it holds at a x."""
    adj = _adj3(a)
    return [sum(line[k] * adj[k][j] for k in range(3)) for j in range(3)]


_CONIC_KEYS = ("xx", "yy", "zz", "xy", "xz", "yz")


def move_conic(a, conic):
    """The conic x^T Q x = 0 goes to adj(a)^T Q adj(a)."""
    c = {k: conic.get(k, 0) for k in _CONIC_KEYS}
    q = [[2 * c["xx"], c["xy"], c["xz"]], [c["xy"], 2 * c["yy"], c["yz"]],
         [c["xz"], c["yz"], 2 * c["zz"]]]
    adj = _adj3(a)
    q2 = checks.mat_mul(checks.mat_mul([list(r) for r in zip(*adj)], q), adj)
    return {"xx": q2[0][0] // 2, "yy": q2[1][1] // 2, "zz": q2[2][2] // 2,
            "xy": q2[0][1], "xz": q2[0][2], "yz": q2[1][2]}


#: the corpus configurations: a quadrilateral with a center, and three lines
#: with a conic x^2 = yz, d1 the double point of the first two lines
FOUR_LINES = ([1, 0, -1], [0, 1, -1], [1, 1, -3], [1, -1, -2])
FOUR_LINES_CENTER = [0, 0, 1]
THREE_LINES = ([1, -1, 2], [2, 1, -3], [4, -1, 0])
THREE_LINES_CONIC = {"xx": 1, "yz": -1}
THREE_LINES_D1 = [1, 7, 3]
THREE_LINES_D2 = [0, 0, 1]


def four_lines_triplet(lines, center):
    """Branch sets of the quadrilateral seen from the center, in some chart.

    The six double points are projected to the pencil through the center;
    branch set m omits the two points of the m-th pairing of the lines.
    Any linear chart of the pencil is a Moebius image of any other.
    """
    drop = max(i for i in range(3) if center[i])
    keep = [i for i in range(3) if i != drop]
    proj = {}
    for i, j in itertools.combinations(range(4), 2):
        ray = _cross(center, _cross(lines[i], lines[j]))
        proj[(i, j)] = point((ray[keep[0]], ray[keep[1]]))
    pairings = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
    return [[proj[p] for p in proj if p not in pairing] for pairing in pairings]


# lattice inputs -------------------------------------------------------------------


def klein_four_action(profile, order):
    """sigma_1 and sigma_2 of a Klein-four bundle, by the involution formula.

    On the basis (L, E_0, E_1..E_k) with f = L - E_0, swapping the fibers J,
    |J| = 2a: E_j -> f - E_j on J, E_0 -> a L - (a - 1) E_0 - sum_J E_j,
    L -> (a + 1) L - a E_0 - sum_J E_j.  ``order`` relabels the fibers.
    """
    sets = standard_triplet(profile)
    k = sum(profile)
    n = k + 2
    gens = []
    for s in sets[:2]:
        swapped = {order[p[0]] for p in s}
        a = len(swapped) // 2
        cols = []
        col_l = [a + 1, -a] + [-(j in swapped) for j in range(k)]
        col_e0 = [a, -(a - 1)] + [-(j in swapped) for j in range(k)]
        cols += [col_l, col_e0]
        for j in range(k):
            e = [0] * n
            if j in swapped:
                e[0], e[1] = 1, -1
                e[2 + j] = -1
            else:
                e[2 + j] = 1
            cols.append(e)
        gens.append([list(r) for r in zip(*cols)])
    return {"r": k + 1, "generators": gens}


MINUS_ONE_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


def minus_one_check(r, listed):
    def check(rc, out):
        doc = checks.report(rc, out)
        require(doc["r"] == r and doc["count"] == MINUS_ONE_COUNTS[r],
                f"r = {r}: count {doc['count']}, expected {MINUS_ONE_COUNTS[r]}")
        if not listed:
            require("classes" not in doc, "classes listed without --list")
            return
        classes = [tuple(c) for c in doc["classes"]]
        require(len(set(classes)) == len(classes) == doc["count"], "class list length")
        k = checks.canonical(r + 1)
        for c in classes:
            require(len(c) == r + 1 and checks.dot(c, c) == -1 and checks.dot(c, k) == -1,
                    f"{c} is not a (-1)-class")
    return check


def invariant_rank_check(action, klein_four):
    n = action["r"] + 1
    fixed = functools.cache(lambda: checks.fixed_rank(action["generators"], n))

    def check(rc, out):
        doc = checks.report(rc, out)
        want = fixed()
        require(doc["r"] == action["r"] and doc["rank"] == want,
                f"rank {doc['rank']}, expected {want}")
        basis = [tuple(v) for v in doc["basis"]]
        require(len(basis) == want and checks.rank(basis) == want, "basis is not independent")
        require(all(checks.mat_vec(g, v) == v for g in action["generators"] for v in basis),
                "a basis class is not fixed")
        if klein_four:
            # the fixed lattice is Z K + Z f, whose Gram determinant is -4
            require(want == 2, "a Klein-four bundle has a rank-2 fixed lattice")
            (a, b) = basis
            gram = checks.dot(a, a) * checks.dot(b, b) - checks.dot(a, b) ** 2
            require(gram == -4, f"fixed lattice has Gram determinant {gram}, not Z K + Z f")
    return check


def genus_check(r, divisor):
    k = checks.canonical(r + 1)
    d2, dk = checks.dot(divisor, divisor), checks.dot(divisor, k)

    def check(rc, out):
        doc = checks.report(rc, out)
        require(doc == {"genus": 1 + (d2 + dk) // 2, "self_intersection": d2},
                f"genus report {doc}, expected D^2 = {d2}, D.K = {dk}")
    return check


# the workloads --------------------------------------------------------------------


def _verdict(rc, out):
    doc = checks.report(rc, out, want_rc=None)
    want = 2 if doc.get("outcome") == "indeterminate" else 0
    require(rc == want, f"exit code {rc} for outcome {doc.get('outcome')}")
    return doc


def sweep_check(profile, sets):
    k = sum(profile)

    def check(rc, out):
        doc = _verdict(rc, out)
        if profile == (1, 1, 1):
            checks.check_chain_to(doc, 6, 8 - k)
        elif profile == (1, 1, 2):
            checks.check_chain_to(doc, 7, 8 - k)
        elif profile == (1, 2, 2):
            require(doc["outcome"] in ("not_maximal", "indeterminate"),
                    f"profile (1, 2, 2) is not maximal, got {doc['outcome']}")
        elif profile in ((2, 2, 2), (2, 2, 3)):
            require(doc["outcome"] == "indeterminate",
                    f"uncertified {profile} must be indeterminate, got {doc['outcome']}")
        else:
            require(doc["outcome"] == "maximal" and doc["family"] == 11,
                    f"profile {profile}: {doc['outcome']} family {doc.get('family')}")
            checks.check_triplet_image(doc["invariant"]["triplet"], sets,
                                       f"canonical triplet of {profile}")
    return check


def klein_four_sweep(rng, golden):
    ops = []
    for profile in realizable_profiles(12):
        m = random_mobius(rng)
        sets = [moved(s, m) for s in standard_triplet(profile)]
        ops.append(_op(f"classify z22 {profile}", ["classify"],
                       {"kind": "z22", "triplet": [[list(p) for p in s] for s in sets]},
                       sweep_check(profile, sets)))
    # the exceptional goldens: a four-point canonical form and stabilizer
    for key in ("family-11", "family-05", "reduce-exceptional-two-fibers"):
        ops.append(golden_op(golden, key))
    return ops


def exceptional_checks(pts, agree):
    """Checks for ``construct exceptional`` and ``classify`` on one set.

    ``agree`` holds, per set, the first invariant seen: a Moebius image of
    the set must classify to the same canonical branch set.
    """
    stab = functools.cache(lambda: checks.stabilizer_order(pts) if len(pts) >= 4 else None)

    def construct_check(rc, out):
        checks.check_exceptional_model(checks.report(rc, out), pts, stab())

    def classify_check(image):
        def check(rc, out):
            doc = checks.report(rc, out)
            if len(pts) == 2:
                checks.check_chain_to(doc, 3, 6)
                return
            require(doc["outcome"] == "maximal" and doc["family"] == 5,
                    f"{len(pts)} points: {doc['outcome']} family {doc.get('family')}")
            inv = doc["invariant"]["delta"]
            checks.check_moebius_image(inv, image, f"invariant of {len(pts)} points")
            first = agree.setdefault(tuple(pts), inv)
            require(inv == first, "two Moebius images of one set classify differently")
        return check

    return construct_check, classify_check


def branch_delta(rng, golden):
    ops = []
    agree: dict = {}
    sets = [(str(n), random_points(rng, n)) for n in (2, 4, 6, 8, 10, 12)]
    # sets with a nontrivial Moebius stabilizer: ties in the minimum
    for values in ((0, None, 1, -1), (0, None, 1, -1, 2, -2)):
        pts = sorted(point((1, 0) if v is None else (v, 1)) for v in values)
        sets.append((f"{len(pts)} symmetric", pts))
    for label, pts in sets:
        doc = {"delta": [list(p) for p in pts]}
        construct_check, classify_check = exceptional_checks(pts, agree)
        ops.append(_op(f"construct exceptional {label}", ["construct", "exceptional"],
                       doc, construct_check))
        image = sorted(moved(pts, random_mobius(rng)))
        for suffix, delta in (("", pts), (" moved", image)):
            ops.append(_op(f"classify exceptional {label}{suffix}", ["classify"],
                           {"kind": "exceptional", "delta": [list(p) for p in delta]},
                           classify_check(delta)))
    pts = random_points(rng, 16)

    def check(rc, out):
        doc = checks.report(rc, out)
        checks.check_moebius_image(doc["delta"], pts, "canonical delta of 16")

    ops.append(_op("canonical delta 16", ["canonical", "delta"],
                   {"delta": [list(p) for p in pts]}, check))
    return ops


def four_lines_input(rng):
    a = random_gl3(rng)
    lines = [move_line(a, l) for l in FOUR_LINES]
    center = move_point(a, FOUR_LINES_CENTER)
    return {"lines": lines, "center": center}


def four_lines_check(doc_in):
    expected = functools.cache(lambda: four_lines_triplet(doc_in["lines"], doc_in["center"]))

    def check(rc, out):
        doc = checks.report(rc, out)
        checks.check_z22_model(doc, profile=(2, 2, 2), source="four-lines")
        checks.check_triplet_image(doc["triplet"], expected(), "four-lines triplet",
                                   pinned=False)
    return check


def three_lines_input(rng):
    a = random_gl3(rng)
    return {"lines": [move_line(a, l) for l in THREE_LINES],
            "conic": move_conic(a, THREE_LINES_CONIC),
            "d1": move_point(a, THREE_LINES_D1), "d2": move_point(a, THREE_LINES_D2)}


def model_build(rng, golden):
    ops = []
    for i in range(4):
        doc = four_lines_input(rng)
        ops.append(_op(f"construct four-lines {i}", ["construct", "four-lines"], doc,
                       four_lines_check(doc)))
    for i in range(4):
        doc = three_lines_input(rng)

        def check(rc, out):
            checks.check_z22_model(checks.report(rc, out), profile=(2, 2, 3),
                                   source="three-lines-conic")

        ops.append(_op(f"construct three-lines-conic {i}",
                       ["construct", "three-lines-conic"], doc, check))
    for profile in realizable_profiles(12):
        sets = standard_triplet(profile)

        def check(rc, out, profile=profile, sets=sets):
            checks.check_z22_model(checks.report(rc, out), profile=profile, triplet=sets)

        ops.append(_op(f"construct z22 {profile}", ["construct", "z22"],
                       {"triplet": [[list(p) for p in s] for s in sets]}, check))
    for r in range(1, 9):
        ops.append(_op(f"minus-one-count {r}",
                       ["lattice", "minus-one-count", "--r", str(r), "--list"],
                       None, minus_one_check(r, True)))
    for i in range(6):
        word = [rng.randrange(6) for _ in range(rng.randint(3, 12))]
        gens = [weyl_element(word)]
        if i % 2:
            gens.append(weyl_element([rng.randrange(6) for _ in range(4)]))
        action = {"r": 6, "generators": gens}
        ops.append(_op(f"invariant-rank weyl {i}", ["lattice", "invariant-rank"], action,
                       invariant_rank_check(action, False)))
    for profile in rng.sample(realizable_profiles(12), 6):
        order = list(range(sum(profile)))
        rng.shuffle(order)
        action = klein_four_action(profile, order)
        ops.append(_op(f"invariant-rank klein-four {profile}", ["lattice", "invariant-rank"],
                       action, invariant_rank_check(action, True)))
    for i in range(12):
        r = rng.randint(1, 8)
        divisor = [rng.randint(-3, 6)] + [rng.randint(-3, 3) for _ in range(r)]
        ops.append(_op(f"genus {i}", ["lattice", "genus"], {"r": r, "divisor": divisor},
                       genus_check(r, divisor)))
    taken = {"family-11", "family-05", "reduce-exceptional-two-fibers"}
    for key in golden_descriptors():
        if key in taken:
            continue
        ops.append(golden_op(golden, key))
        if golden[key][1]["outcome"] == "maximal":
            ops.append(golden_op(golden, key, links=True))
    return ops


def cli_cold(rng, golden):
    def hirzebruch(rc, out):
        require(checks.report(rc, out) == {"family": 4, "invariant": {"n": 4},
                                           "outcome": "maximal"},
                "F_4 is family 4 with invariant n = 4")

    lines = four_lines_input(rng)
    expected = functools.cache(lambda: four_lines_triplet(lines["lines"], lines["center"]))

    def pipeline(rc, out):
        doc = checks.report(rc, out)
        require(doc["outcome"] == "maximal" and doc["family"] == 11,
                f"four lines: {doc['outcome']} family {doc.get('family')}")
        checks.check_triplet_image(doc["invariant"]["triplet"], expected(), "four-lines verdict")

    def delta(rc, out):
        checks.check_moebius_image(checks.report(rc, out)["delta"],
                                   [(0, 1), (1, 1), (2, 1), (3, 1)], "canonical delta of 4")

    return [
        _op("cold classify hirzebruch 4", ["classify"], {"kind": "hirzebruch", "n": 4},
            hirzebruch),
        Op("cold construct four-lines | classify",
           (("construct", "four-lines"), ("classify",)), json.dumps(lines), pipeline),
        _op("cold minus-one-count 8", ["lattice", "minus-one-count", "--r", "8"], None,
            minus_one_check(8, False)),
        _op("cold canonical delta 4", ["canonical", "delta"], {"delta": [0, 1, 2, 3]}, delta),
        golden_op(golden, "family-08", links=True, prefix="cold "),
    ]


OPERATION_SETS = {
    "klein-four-sweep": klein_four_sweep,
    "branch-delta": branch_delta,
    "model-build": model_build,
    "cli-cold": cli_cold,
}


def build_ops(workload: str, seed: int) -> list[Op]:
    """The workload's operation set; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    ops = OPERATION_SETS[workload](rng, load_golden())
    if len({op.name for op in ops}) != len(ops):
        raise ValueError(f"{workload}: operation names must be unique")
    return ops

