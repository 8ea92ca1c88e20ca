"""Independent oracles used to freeze expected values in the test suite.

Everything in this file deliberately avoids the algorithms of the package
under test:

* the (-1)-class oracle enumerates representations of d^2 + 1 as ordered
  sums of squares (partition first, then signs, then positions) instead of
  the package's coefficient-by-coefficient search, and scans the degree
  over a slack interval [-12, 12] far beyond the proved bound;
* the invariant-rank oracle row-reduces over the rationals with sympy and
  checks saturation by hand, instead of integer Hermite forms;
* the Moebius stabilizer oracle works on affine values (Fraction or the
  None infinity) with literal arithmetic instead of 2 x 2 matrices.

Run this module directly to print the frozen tables.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import sympy

SLACK_DEGREES = range(-12, 13)


def _square_partitions(total: int, parts: int, floor: int = 1) -> list[tuple[int, ...]]:
    """Nondecreasing tuples of `parts` positive ints with squares summing to total."""
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    m = floor
    while m * m * parts <= total:
        for rest in _square_partitions(total - m * m, parts - 1, m):
            out.append((m,) + rest)
        m += 1
    return out


def minus_one_vectors_oracle(r: int) -> set[tuple[int, ...]]:
    """All integer vectors (d, e_1..e_r) with d^2 - sum e_i^2 = -1 and 3d + sum e_i = 1."""
    found: set[tuple[int, ...]] = set()
    for d in SLACK_DEGREES:
        target_sq = d * d + 1
        target_lin = 1 - 3 * d
        for used in range(r + 1):
            for part in _square_partitions(target_sq, used):
                for signs in itertools.product((1, -1), repeat=used):
                    vals = tuple(s * m for s, m in zip(signs, part))
                    if sum(vals) != target_lin:
                        continue
                    padded = vals + (0,) * (r - used)
                    for perm in set(itertools.permutations(padded)):
                        found.add((d,) + perm)
    return found


def invariant_rank_oracle(generators: list[list[list[int]]]) -> int:
    """Rank of the common fixed space, via rational nullspace of stacked M - I."""
    if not generators:
        raise ValueError("need at least one generator")
    n = len(generators[0])
    rows = []
    for g in generators:
        m = sympy.Matrix(g) - sympy.eye(n)
        rows.extend(m.tolist())
    return len(sympy.Matrix(rows).nullspace())


def genus_oracle(coeffs: tuple[int, ...]) -> Fraction:
    """1 + (D^2 + D.K)/2 as an exact Fraction, K = (-3, 1, ..., 1)."""
    d = sympy.Matrix(coeffs)
    r = len(coeffs) - 1
    gram = sympy.diag(1, *([-1] * r))
    k = sympy.Matrix([-3] + [1] * r)
    val = (d.T * gram * d)[0, 0] + (d.T * gram * k)[0, 0]
    return Fraction(1) + Fraction(int(val), 2)


# Moebius maps on affine values; None stands for infinity.

Value = Fraction | None


def _mob_apply(abcd: tuple[int, int, int, int], t: Value) -> Value:
    a, b, c, d = abcd
    if t is None:
        return None if c == 0 else Fraction(a, c)
    num = a * t + b
    den = c * t + d
    if den == 0:
        return None
    return Fraction(num, den)


def _mob_from_triple(src: tuple[Value, Value, Value], dst: tuple[Value, Value, Value]):
    """Solve for (a, b, c, d) with sympy; returns None when degenerate."""
    a, b, c, d = sympy.symbols("a b c d")
    eqs = []
    for s, t in zip(src, dst):
        # cross-multiplied incidence of (a s + b : c s + d) with target t
        if s is None:
            num, den = a, c
        else:
            sv = sympy.Rational(s)
            num, den = a * sv + b, c * sv + d
        if t is None:
            eqs.append(sympy.Eq(den, 0))
        else:
            tv = sympy.Rational(t)
            eqs.append(sympy.Eq(num - tv * den, 0))
    sols = sympy.solve(eqs, [a, b, c, d], dict=True)
    for sol in sols:
        vals = sympy.Matrix([[a, b], [c, d]]).subs(sol)
        free = sorted(vals.free_symbols, key=str)
        if free:
            vals = vals.subs({f: 1 for f in free})
        if vals.det() != 0:
            # the entries are exact rationals; nsimplify can turn one into a
            # product of radical powers (8409/1651 did), so convert directly
            flat = [sympy.Rational(x) for x in vals]
            denoms = [sympy.fraction(x)[1] for x in flat]
            scale = sympy.lcm(denoms)
            ints = [int(x * scale) for x in flat]
            return tuple(ints)
    return None


def stabilizer_order_oracle(values: list[Value]) -> int:
    """Order of the subgroup of PGL(2, Q) preserving the value set."""
    pts = list(values)
    base = tuple(pts[:3])
    kept = set()
    target_set = {v for v in pts}
    for img in itertools.permutations(pts, 3):
        abcd = _mob_from_triple(base, tuple(img))
        if abcd is None:
            continue
        images = {_mob_apply(abcd, v) for v in pts}
        if images == target_set:
            # normalize the matrix to a canonical projective representative
            g = sympy.igcd(*abcd)
            norm = tuple(x // g for x in abcd)
            lead = next(x for x in norm if x != 0)
            if lead < 0:
                norm = tuple(-x for x in norm)
            kept.add(norm)
    return len(kept)


if __name__ == "__main__":
    print("(-1)-class counts by r (slack degree scan %s..%s):"
          % (SLACK_DEGREES.start, SLACK_DEGREES.stop - 1))
    for r in range(1, 9):
        vecs = minus_one_vectors_oracle(r)
        degs = sorted({v[0] for v in vecs})
        print(f"  r={r}: {len(vecs)}  degrees used: {degs}")
    print("stabilizer order of {0, 1, oo}:",
          stabilizer_order_oracle([Fraction(0), Fraction(1), None]))
    print("stabilizer order of {0, oo, 1, -1}:",
          stabilizer_order_oracle([Fraction(0), None, Fraction(1), Fraction(-1)]))
