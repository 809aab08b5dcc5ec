"""Exact integer and rational linear algebra kernels.

Everything runs on plain Python ints and fractions.Fraction, so there
is no overflow and no rounding; obstruction verdicts downstream rely on
these results being exact.  Matrices are lists/tuples of rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (DegenerateGraph, DimensionMismatch, NonSquare,
                     NonSymmetric, Singular)
from .graphs import MarkedGraph


@dataclass(frozen=True)
class GoeritzForm:
    """Laplacian of the white graph with the marked row/column deleted.

    matrix[i][i] = -deg(v_i) in the full graph, matrix[i][j] = number of
    edges between v_i and v_j; vertex_order lists the unmarked vertices.
    """
    matrix: tuple
    vertex_order: tuple

    @property
    def m(self):
        return len(self.vertex_order)

    @property
    def diagonal(self):
        return tuple(self.matrix[i][i] for i in range(self.m))

    @cached_property
    def hermite(self):
        """Column Hermite basis of the lattice G Z^m, computed once."""
        return hnf_basis(self.matrix)


def goeritz(w: MarkedGraph) -> GoeritzForm:
    if w.marked is None:
        raise DegenerateGraph("graph carries no marked vertex")
    order = tuple(v for v in w.vertices if v != w.marked)
    if not order:
        raise DegenerateGraph("no unmarked vertices")
    rows = []
    for vi in order:
        row = []
        for vj in order:
            if vi == vj:
                row.append(-w.degree(vi))
            else:
                row.append(w.edges_between(vi, vj))
        rows.append(tuple(row))
    return GoeritzForm(tuple(rows), order)


def _require_square(m):
    n = len(m)
    if any(len(row) != n for row in m):
        raise NonSquare("matrix is not square")
    return n


def det_exact(m) -> int:
    """Fraction-free Bareiss elimination; exact integer determinant."""
    n = _require_square(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate(m):
    """Integer adjugate and determinant of a nonsingular integer matrix.

    Fraction-free Gauss-Jordan elimination (Bareiss) on [m | I]: every
    division is exact, the left block ends as p I and the right block as
    p m^{-1}, where p is the determinant up to the sign of the row swaps.
    Returns (adj, det) with m adj = det I; raises Singular when det = 0.
    """
    n = _require_square(m)
    a = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(m)]
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                raise Singular("matrix is singular")
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        p = a[k][k]
        pivot_row = a[k]
        for i in range(n):
            if i != k:
                row = a[i]
                f = row[k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    adj = tuple(tuple(sign * x for x in row[n:]) for row in a)
    return adj, sign * prev


def signature(m) -> tuple:
    """Inertia (n+, n-, n0) of a symmetric matrix, by exact congruence.

    Zero diagonals are repaired with the congruence row/col addition
    trick, which is valid over the rationals.
    """
    n = _require_square(m)
    for i in range(n):
        for j in range(n):
            if m[i][j] != m[j][i]:
                raise NonSymmetric("matrix is not symmetric")
    a = [[Fraction(x) for x in row] for row in m]
    pos = neg = zero = 0
    i = 0
    while i < n:
        if a[i][i] == 0:
            j = next((r for r in range(i + 1, n) if a[r][r] != 0), None)
            if j is not None:
                for r in range(n):
                    a[i][r], a[j][r] = a[j][r], a[i][r]
                for r in range(n):
                    a[r][i], a[r][j] = a[r][j], a[r][i]
            else:
                j = next((c for c in range(i + 1, n) if a[i][c] != 0), None)
                if j is None:
                    zero += 1
                    i += 1
                    continue
                for r in range(n):
                    a[i][r] += a[j][r]
                for r in range(n):
                    a[r][i] += a[r][j]
        p = a[i][i]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for r in range(i + 1, n):
            f = a[r][i] / p
            if f:
                for c in range(i, n):
                    a[r][c] -= f * a[i][c]
                for c in range(i, n):
                    a[c][r] -= f * a[c][i]
        i += 1
    return (pos, neg, zero)


def gf2_affine_solutions(a, b):
    """Affine solution set of a x = b over GF(2).

    Returns None when inconsistent, else (particular, kernel_basis); the
    solution count is 2**len(kernel_basis).
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if rows and any(len(r) != cols for r in a):
        raise DimensionMismatch("ragged matrix")
    if len(b) != rows:
        raise DimensionMismatch("rhs length mismatch")
    aug = [[x & 1 for x in row] + [bi & 1] for row, bi in zip(a, b)]
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        for i in range(rows):
            if i != r and aug[i][c]:
                aug[i] = [x ^ y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][cols]:
            return None
    particular = [0] * cols
    for i, c in enumerate(pivots):
        particular[c] = aug[i][cols]
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = []
    for fc in free:
        vec = [0] * cols
        vec[fc] = 1
        for i, c in enumerate(pivots):
            if aug[i][fc]:
                vec[c] = 1
        basis.append(tuple(vec))
    return tuple(particular), tuple(basis)


def _characteristic_supports(matrix, labels):
    """Supports of every y with M y = diag(M) over GF(2).

    Each support is the tuple of labels where y is 1; the list is sorted
    by size, then by the labels' strings.  The count is a power of two.
    """
    a = [[x & 1 for x in row] for row in matrix]
    b = [matrix[i][i] & 1 for i in range(len(matrix))]
    sol = gf2_affine_solutions(a, b)
    assert sol is not None, "characteristic systems are always consistent"
    particular, basis = sol
    out = []
    for mask in range(1 << len(basis)):
        y = list(particular)
        for k in range(len(basis)):
            if mask >> k & 1:
                y = [p ^ q for p, q in zip(y, basis[k])]
        out.append(tuple(v for v, bit in zip(labels, y) if bit))
    out.sort(key=lambda t: (len(t), tuple(map(str, t))))
    return out


def hnf_basis(m):
    """Column Hermite form of a nonsingular integer matrix.

    Returns an upper-triangular basis of the column lattice: column j
    has its pivot H[j][j] > 0 and zeros below row j.
    """
    n = _require_square(m)
    cols = [[m[i][j] for i in range(n)] for j in range(n)]
    for row in range(n - 1, -1, -1):
        active = list(range(row + 1))
        while True:
            nz = [c for c in active if cols[c][row] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(cols[c][row]))
            c0 = nz[0]
            for c in nz[1:]:
                q = cols[c][row] // cols[c0][row]
                for i in range(n):
                    cols[c][i] -= q * cols[c0][i]
        nz = [c for c in active if cols[c][row] != 0]
        if not nz:
            raise Singular("matrix has rank < n")
        c0 = nz[0]
        cols[c0], cols[row] = cols[row], cols[c0]
        if cols[row][row] < 0:
            cols[row] = [-x for x in cols[row]]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def hnf_reduce(v, h, scale=1):
    """Canonical representative of v modulo the column lattice of scale h.

    h must be upper triangular (hnf_basis output); the result lies in
    the box 0 <= r[i] < scale h[i][i].  hnf_basis commutes with scaling
    (floor quotients and sort keys are scale-invariant), so reducing
    against h = hnf_basis(M) with scale 2 reduces modulo 2M.
    """
    n = len(h)
    r = list(v)
    for i in range(n - 1, -1, -1):
        q = r[i] // (scale * h[i][i]) * scale
        if q:
            for k in range(i + 1):
                r[k] -= q * h[k][i]
    return tuple(r)


def matvec(m, v):
    return tuple(sum(mi * vi for mi, vi in zip(row, v)) for row in m)
