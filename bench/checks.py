"""Output checks made with the benchmark's own exact arithmetic.

Nothing here imports ``cremona``.  Every check either recomputes a value
apart from the program (intersection numbers, ranks by Fraction
elimination, stabilizer counts, j-invariants of four-point subsets) or
tests a property the method must have (an involution is an involution,
a canonical form pins 0, 1 and infinity).  A failed check raises
``CheckFailed``; the runner counts the operation as failed.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from fractions import Fraction


class CheckFailed(Exception):
    """An operation's output is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def dumps(doc) -> str:
    """The CLI's documented report format: sorted keys, indent 2, newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def report(rc: int, out: str, want_rc: int | None = 0) -> dict:
    """Parse a report, requiring the exit code (unless None) and the layout."""
    require(want_rc is None or rc == want_rc, f"exit code {rc}, expected {want_rc}")
    try:
        doc = json.loads(out)
    except ValueError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None
    require(out == dumps(doc), "report is not in the canonical JSON layout")
    return doc


# points of the projective line ------------------------------------------------


def point(pair) -> tuple[int, int]:
    """A reduced pair (a, b) with a positive first nonzero entry."""
    a, b = pair
    require(isinstance(a, int) and isinstance(b, int) and (a, b) != (0, 0),
            f"not a point of the line: {pair!r}")
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    return a, b


PINNED = ((0, 1), (1, 1), (1, 0))


def _d(p, q) -> int:
    return p[0] * q[1] - p[1] * q[0]


def j_class(p1, p2, p3, p4) -> tuple[int, int]:
    """The j-invariant of four distinct points, as a reduced fraction.

    With the cross-ratio lambda = N / D, j = (N^2 - N D + D^2)^3 divided
    by (N D (N - D))^2, up to the constant 256.  It does not change under
    Moebius maps or under permutations of the four points.
    """
    n = _d(p4, p1) * _d(p2, p3)
    d = _d(p4, p3) * _d(p2, p1)
    num = (n * n - n * d + d * d) ** 3
    den = (n * d * (n - d)) ** 2
    require(den != 0, "four points of a set are not distinct")
    g = math.gcd(num, den)
    return num // g, den // g


def j_multiset(points) -> tuple:
    return tuple(sorted(Counter(
        j_class(*q) for q in itertools.combinations(points, 4)).items()))


def check_moebius_image(out_points, in_points, what: str, pinned: bool = True) -> None:
    """The output has the input's j-invariants and, if ``pinned``, holds 0, 1, oo."""
    out_pts = [point(p) for p in out_points]
    require(len(set(out_pts)) == len(out_pts) == len(set(in_points)),
            f"{what}: {len(out_pts)} distinct points out of {len(set(in_points))}")
    require(not pinned or all(p in out_pts for p in PINNED),
            f"{what}: 0, 1 and oo are not all pinned")
    require(j_multiset(out_pts) == j_multiset(in_points),
            f"{what}: not a Moebius image of its input (j-invariants differ)")


def check_triplet_image(out_sets, in_sets, what: str, pinned: bool = True) -> None:
    """A triplet is a Moebius image of the input triplet.

    Compares the support's j-invariants and, set by set up to order, the
    j-invariants of each branch set.
    """
    sets = [[point(p) for p in s] for s in out_sets]
    check_triplet_shape(sets, what)
    support = sorted({p for s in sets for p in s})
    in_support = sorted({p for s in in_sets for p in s})
    check_moebius_image(support, in_support, what, pinned)
    require(sorted(j_multiset(s) for s in sets) == sorted(j_multiset(s) for s in in_sets),
            f"{what}: branch sets are not carried to branch sets")
    require(sorted(len(s) for s in sets) == sorted(len(s) for s in in_sets),
            f"{what}: branch set sizes differ")


def check_triplet_shape(sets, what: str) -> tuple[int, int, int]:
    """Three even sets covering every point exactly twice; returns the profile."""
    require(len(sets) == 3, f"{what}: {len(sets)} branch sets")
    counts = Counter()
    for s in sets:
        require(len(s) >= 2 and len(s) % 2 == 0 and len(set(s)) == len(s),
                f"{what}: bad branch set size {len(s)}")
        counts.update(s)
    require(all(c == 2 for c in counts.values()),
            f"{what}: a point is not covered exactly twice")
    return tuple(sorted(len(s) // 2 for s in sets))


def stabilizer_order(points) -> int:
    """Number of Moebius maps over Q that preserve the point set.

    The map sending (p, q, r) to (0, 1, oo) takes x to the cross-ratio
    (x - p)(q - r) / ((x - r)(q - p)).  A map sending the first three
    points to an ordered triple c preserves the set exactly when the two
    cross-ratio images of the set agree, so the count runs over triples.
    """
    pts = [point(p) for p in points]

    def image(p, q, r):
        vals = set()
        for x in pts:
            num = _d(x, p) * _d(q, r)
            den = _d(x, r) * _d(q, p)
            vals.add(None if den == 0 else Fraction(num, den))
        return vals

    base = image(*pts[:3])
    return sum(1 for c in itertools.permutations(pts, 3) if image(*c) == base)


# the Picard lattice of a blowup ----------------------------------------------


def dot(v, w) -> int:
    """Intersection form diag(1, -1, ..., -1)."""
    return v[0] * w[0] - sum(a * b for a, b in zip(v[1:], w[1:]))


def canonical(n: int) -> tuple[int, ...]:
    return (-3,) + (1,) * (n - 1)


def fiber(n: int) -> tuple[int, ...]:
    return (1, -1) + (0,) * (n - 2)


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def mat_vec(m, v) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def identity(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def rank(rows) -> int:
    """Rank over Q by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def fixed_rank(generators, n: int) -> int:
    """Rank of the sublattice fixed by every generator."""
    if not generators:
        return n
    rows = [[g[i][j] - (i == j) for j in range(n)] for g in generators for i in range(n)]
    return n - rank(rows)


def check_isometry(m, n: int, what: str) -> None:
    require(len(m) == n and all(len(row) == n for row in m), f"{what}: not {n} x {n}")
    cols = list(zip(*m))
    for i in range(n):
        for j in range(n):
            want = (1 if i == 0 else -1) if i == j else 0
            require(dot(cols[i], cols[j]) == want, f"{what}: does not preserve the form")
    require(mat_vec(m, canonical(n)) == canonical(n), f"{what}: moves K")


def check_involution(m, n: int, what: str) -> None:
    check_isometry(m, n, what)
    require(mat_mul(m, m) == identity(n), f"{what}: is not an involution")


# models -------------------------------------------------------------------------


def check_z22_model(doc, *, profile=None, source=None, triplet=None) -> None:
    """A Klein-four conic bundle model as ``construct`` prints it."""
    require(doc.get("kind") == "z22", "not a z22 model")
    sets = [[point(p) for p in s] for s in doc["triplet"]]
    got = check_triplet_shape(sets, "model triplet")
    require(list(got) == doc["profile"], "profile does not match the branch sets")
    if profile is not None:
        require(got == tuple(profile), f"profile {got}, expected {tuple(profile)}")
    if triplet is not None:
        require(sorted(map(sorted, sets)) == sorted(map(sorted, triplet)),
                "the model's triplet is not the input triplet")
    k = len({p for s in sets for p in s})
    require(doc["k"] == k and doc["k_squared"] == 8 - k, "k or K^2 is wrong")
    n = k + 2
    gens = doc["generators"]
    require(len(gens) == 3, "a Klein-four model has three involutions")
    for i, g in enumerate(gens):
        check_involution(g, n, f"sigma_{i + 1}")
        # sigma_i acts as -1 on f - 2 E_j exactly over its 2 a_i branch points
        require(fixed_rank([g], n) == n - len(sets[i]),
                f"sigma_{i + 1} does not swap exactly its branch fibers")
    require(mat_mul(gens[0], gens[1]) == gens[2], "sigma_1 sigma_2 != sigma_3")
    require(fixed_rank(gens, n) == 2, "the fixed lattice does not have rank 2")
    for v in (canonical(n), fiber(n)):
        require(all(mat_vec(g, v) == v for g in gens), "K or f is not fixed")
    cert = doc.get("certificate")
    require((cert is None) == (source is None),
            f"certificate {'missing' if cert is None else 'unexpected'}")
    if cert is not None:
        check_certificate(cert, gens, n, source)


def check_certificate(cert, gens, n: int, source: str) -> None:
    require(cert["source"] == source, f"certificate source {cert['source']!r}")
    secs = [tuple(s) for s in cert["sections"]]
    require(len(secs) == 4 and all(len(s) == n for s in secs), "not four sections")
    f = fiber(n)
    for s in secs:
        require(dot(s, s) == -2 and dot(s, f) == 1, f"{s} is not a (-2)-section")
    matrix = [[dot(a, b) for b in secs] for a in secs]
    require(matrix == cert["matrix"], "stated intersection matrix is wrong")
    for g in gens:
        require(all(mat_vec(g, s) in secs for s in secs),
                "the involutions do not permute the sections")
    crossing = [(i, j) for i in range(4) for j in range(i + 1, 4) if matrix[i][j]]
    if source == "four-lines":
        require(not crossing, "four-line sections must be disjoint")
    else:
        flat = sorted(i for pair in crossing for i in pair)
        require(flat == [0, 1, 2, 3] and all(matrix[i][j] == 1 for i, j in crossing),
                "three-lines-conic sections must form two crossing pairs")


def check_exceptional_model(doc, delta, stab_order) -> None:
    """An exceptional bundle as ``construct exceptional`` prints it."""
    pts = sorted({point(p) for p in delta})
    require(doc.get("kind") == "exceptional", "not an exceptional model")
    require(sorted(point(p) for p in doc["delta"]) == pts, "delta is not the input set")
    m = len(pts) // 2
    n = 2 * m + 2
    require(doc["n"] == m and doc["k_squared"] == 8 - 2 * m, "n or K^2 is wrong")
    swap = doc["swap"]
    check_involution(swap, n, "swap")
    require(fixed_rank([swap], n) == 2, "the swap does not act as -1 on every fiber")
    s1, s2 = (tuple(s) for s in doc["sections"])
    f = fiber(n)
    require(dot(s1, s1) == dot(s2, s2) == -m and dot(s1, s2) == 0,
            f"sections are not disjoint (-{m})-curves")
    require(dot(s1, f) == dot(s2, f) == 1, "sections do not meet f once")
    require(mat_vec(swap, s1) == s2 and mat_vec(swap, s2) == s1,
            "the swap does not exchange the sections")
    aut = doc["aut"]
    require(aut["kernel"] == "C^* : Z/2", "kernel tag")
    require(aut["stabilizer_order"] == (stab_order if m >= 2 else None),
            f"stabilizer order {aut['stabilizer_order']}, counted {stab_order}")
    require(aut["equals_full_automorphisms"] == (m >= 2), "full automorphism flag")


# verdicts -----------------------------------------------------------------------

#: K^2 of the Mori fibre space behind each maximal family with a fixed
#: surface; families 5 and 11 take it from the model
FAMILY_K2 = {1: 9, 2: 8, 3: 6, 4: 8, 6: 5, 7: 4, 8: 3, 9: 2, 10: 1}


def check_links(links: dict, family: int) -> None:
    """The link report of a maximal verdict: four entries, consistent numerics."""
    require(links["family"] == family, "link report names another family")
    k2 = links["k_squared"]
    if family in FAMILY_K2:
        require(k2 == FAMILY_K2[family], f"K^2 = {k2} for family {family}")
    entries = links["links"]
    require([e["link_type"] for e in entries] == [1, 2, 3, 4], "link types are not 1..4")
    for e in entries:
        require(e["status"] in ("excluded", "possibly_open"), f"status {e['status']!r}")
        w = e["witness"]
        if w is not None:
            # a second fibration -a K + b f needs a K^2 = 4
            require(e["link_type"] == 4 and w[0] * k2 == 4, f"witness {w} for K^2 = {k2}")


def check_chain_to(doc, family: int, k2: int) -> None:
    """A not_maximal verdict whose chain starts at K^2 and ends in a family."""
    require(doc["outcome"] == "not_maximal", f"outcome {doc['outcome']}")
    chain = doc["chain"]
    require(chain[0]["k_squared"] == k2, f"chain starts at K^2 = {chain[0]['k_squared']}")
    require(chain[-1] == {"move": "maximal-family", "detail": f"family {family}",
                          "k_squared": None}, f"chain ends in {chain[-1]}")
