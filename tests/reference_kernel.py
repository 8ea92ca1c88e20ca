"""The dense lattice kernel as it was before the sparse rewrite.

These copies are the reference the sparse kernel must agree with, entry
for entry and error class for error class: the dense product through the
transpose, the isometry check as a full ``M^T G M`` product against the
dense Gram matrix, the Hermite form on two separate arrays, the
fiberwise involution assembled with ``DivisorClass`` arithmetic, and the
invariant sublattice from every stacked row of ``M - I``.  The group order
of an action comes from a breadth-first closure under the generators.
"""

from __future__ import annotations

from cremona import intlinalg as la
from cremona.picard import DivisorClass
from cremona.errors import DimensionMismatch, MovesCanonicalClass, NotIsometry


def reference_mat_mul(a, b):
    bt = la.transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def reference_validate_action(lattice, matrix):
    m = la.freeze(matrix)
    n = lattice.rank
    if len(m) != n or any(len(row) != n for row in m):
        raise DimensionMismatch(f"action matrix must be {n} x {n}")
    gram = tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n))
        for i in range(n)
    )
    if reference_mat_mul(reference_mat_mul(la.transpose(m), gram), m) != gram:
        raise NotIsometry("matrix does not preserve the intersection form")
    k = lattice.canonical_class.coeffs
    if la.mat_vec(m, k) != k:
        raise MovesCanonicalClass("matrix moves the canonical class")
    return m


def _row_sub(rows, i, j, q):
    ri, rj = rows[i], rows[j]
    for c in range(len(ri)):
        ri[c] -= q * rj[c]


def reference_hermite_row_form(m):
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rows = [list(row) for row in m]
    u = [list(row) for row in la.identity(nrows)]

    def swap(i, j):
        rows[i], rows[j] = rows[j], rows[i]
        u[i], u[j] = u[j], u[i]

    def combine(i, j, q):
        _row_sub(rows, i, j, q)
        _row_sub(u, i, j, q)

    pivot_row = 0
    for col in range(ncols):
        live = [i for i in range(pivot_row, nrows) if rows[i][col] != 0]
        if not live:
            continue
        while len(live) > 1:
            base = min(live, key=lambda i: abs(rows[i][col]))
            for i in live:
                if i == base:
                    continue
                q = rows[i][col] // rows[base][col]
                if q:
                    combine(i, base, q)
            live = [i for i in range(pivot_row, nrows) if rows[i][col] != 0]
        swap(pivot_row, live[0])
        if rows[pivot_row][col] < 0:
            rows[pivot_row] = [-x for x in rows[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        p = rows[pivot_row][col]
        for i in range(pivot_row):
            q = rows[i][col] // p
            if q:
                combine(i, pivot_row, q)
        pivot_row += 1
        if pivot_row == nrows:
            break
    return la.freeze(rows), la.freeze(u)


def reference_involution_matrix(marking, swapped):
    idx = sorted(set(swapped))
    if len(idx) % 2 != 0:
        raise ValueError(f"a fiberwise involution swaps an even number of fibers, got {len(idx)}")
    if idx and not 1 <= idx[0] <= idx[-1] <= marking.k:
        raise ValueError(f"fiber indices {idx} out of range 1..{marking.k}")
    a = len(idx) // 2
    lat = marking.lattice
    ell = lat.line_class()
    e0 = lat.exceptional_class(1)
    swapped_sum = lat.zero()
    for j in idx:
        swapped_sum = swapped_sum + marking.fiber_component(j)

    images = [
        (a + 1) * ell - a * e0 - swapped_sum,
        a * ell - (a - 1) * e0 - swapped_sum,
    ]
    for j in range(1, marking.k + 1):
        ej = marking.fiber_component(j)
        if j in idx:
            images.append(ell - e0 - ej)
        else:
            images.append(ej)
    matrix = la.transpose(la.freeze([d.coeffs for d in images]))
    return reference_validate_action(lat, matrix)


def reference_invariant_sublattice(action):
    n = action.lattice.rank
    if not action.generators:
        basis = la.identity(n)
        return n, tuple(DivisorClass(row) for row in basis)
    rows = []
    for g in action.generators:
        for i in range(n):
            rows.append(tuple(g[i][j] - (1 if i == j else 0) for j in range(n)))
    kernel = la.kernel_basis(la.freeze(rows))
    return len(kernel), tuple(DivisorClass(row) for row in kernel)


def reference_group_order(action):
    """The order of the group the generators of ``action`` generate."""
    ident = la.identity(action.lattice.rank)
    seen = {ident}
    frontier = [ident]
    while frontier:
        frontier = [p for p in {la.mat_mul(g, m) for m in frontier for g in action.generators}
                    if p not in seen]
        seen.update(frontier)
    return len(seen)
