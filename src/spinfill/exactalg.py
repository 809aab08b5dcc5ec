"""Exact integer and rational linear algebra kernels.

Everything runs on plain Python ints and fractions.Fraction, so there
is no overflow and no rounding; obstruction verdicts downstream rely on
these results being exact.  Matrices are lists/tuples of rows.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import mul

from .errors import (CertificationFailure, DegenerateGraph,
                     DimensionMismatch, NonSquare, NonSymmetric, Singular)
from .graphs import Frozen, MarkedGraph


class GoeritzForm(Frozen):
    """Laplacian of the white graph with the marked row/column deleted.

    matrix[i][i] = -deg(v_i) in the full graph, matrix[i][j] = number of
    edges between v_i and v_j; vertex_order lists the unmarked vertices.
    Two forms are equal when their matrices and vertex orders are.
    """
    _fields = ("matrix", "vertex_order")

    def __init__(self, matrix, vertex_order):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "vertex_order", vertex_order)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.matrix == other.matrix
                and self.vertex_order == other.vertex_order)

    def __hash__(self):
        return hash((self.matrix, self.vertex_order))

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

    @cached_property
    def kernel(self):
        """The form's OrbitKernel, built once; raises Singular unless G < 0."""
        return OrbitKernel(self)


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
    if sol is None:
        raise CertificationFailure(
            "exactalg._characteristic_supports: M y = diag(M) has no GF(2) "
            "solution (rank %d)" % len(matrix))
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
    return tuple(sum(map(mul, row, v)) for row in m)


def _sweep(a):
    """One fraction-free Gauss-Jordan pass (Bareiss) over [a | I], a = -G.

    Returns (pivots, low, adj): pivots[k] is the leading minor of order
    k + 1 (the last is det a), low[k] is column k below the pivot at step
    k (zeros above), and the right block ends as adj(a).  Raises Singular
    at the first pivot <= 0: by Sylvester's criterion a is positive
    definite exactly when every leading minor is positive, so no row
    swap is ever needed.
    """
    n = len(a)
    rows = [list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(a)]
    low = []
    pivots = []
    prev = 1
    for k in range(n):
        p = rows[k][k]
        if p <= 0:
            raise Singular("leading minor %d of -G is %d" % (k + 1, p))
        pivots.append(p)
        low.append([0] * (k + 1) + [rows[i][k] for i in range(k + 1, n)])
        pivot_row = rows[k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(p * x - f * y) // prev
                           for x, y in zip(rows[i], pivot_row)]
        prev = p
    return pivots, low, tuple(tuple(row[n:]) for row in rows)


class OrbitKernel:
    """Closest-vector data of one Goeritz form, on integers only.

    For A = -G the orbit maximum of v is -4 min_y (y - t)^T A (y - t)
    with t = adj(A) v / (2 det A).  The LDL^T factors of A and the target
    share the denominators P = lcm of the leading minors and S = 2 det A,
    so with Q = P S every search center is C / Q for an integer C, and
    every partial cost is an integer over the fixed constant W Q^2.

    The factors are taken in the elimination order `order`: the vertices
    by degree (the diagonal of A), ties by index, so the vertex of
    largest degree is eliminated last.  Its level, searched first, then
    tends to get the largest Schur complement, which prunes the widest
    part of the search.  One sweep of A in that order gives the factors,
    det A and adj(A), and building the kernel certifies G negative
    definite (Sylvester, on the pivots in that order), else raises
    Singular.  pivots are the leading minors of A in elimination order;
    adj and det are in vertex order, and the adjugate rows are kept a
    second time in elimination order, to build the targets of min_costs.
    """

    def __init__(self, g: GoeritzForm):
        m = self.m = g.m
        a = g.matrix
        order = sorted(range(m), key=lambda i: (-a[i][i], i))
        pivots, low, adj = _sweep([[-a[i][j] for j in order] for i in order])
        # the swept adjugate is adj(A) with rows and columns in `order`
        place = [0] * m
        for k, i in enumerate(order):
            place[i] = k
        self.adj = tuple(tuple(adj[place[i]][place[j]] for j in range(m))
                         for i in range(m))
        # row k is adj(A) e_order[k], read against a covector in vertex order
        self.target_rows = tuple(self.adj[i] for i in order)
        self.order = tuple(order)
        self.pivots = pivots
        self.det = pivots[-1]
        p = math.lcm(*pivots)
        w = math.lcm(*pivots[:-1])
        self.p = p
        self.s = 2 * self.det
        self.q = p * self.s
        # P L[j][k] = P low[k][j] / pivots[k], read by level k
        self.low = [[x * (p // pivots[k]) for x in col]
                    for k, col in enumerate(low)]
        # W D[k]
        self.weight = [pivots[k] * (w // (pivots[k - 1] if k else 1))
                       for k in range(m)]
        self.denominator = w * self.q * self.q

    def adj_norm(self, v) -> int:
        """v^T adj(A) v, an integer: v^T G^{-1} v is -adj_norm(v) / det A."""
        return sum(map(mul, v, matvec(self.adj, v)))

    def min_costs(self, covectors):
        """W Q^2 min over integer y of (y - t)^T A (y - t) for each
        covector v, in order, where t = adj(A) v / S.

        covectors are in vertex order; the target adj(A) v is built in
        elimination order from target_rows.  Each target gets its own
        depth-first Schnorr-Euchner search over the LDL cone (_nearest)
        with incumbent pruning, from level m - 1 down.
        """
        n, p, q, s = self.m, self.p, self.q, self.s
        low, weight, rows = self.low, self.weight, self.target_rows
        top = n - 1
        costs = []
        for v in covectors:
            target = [sum(map(mul, row, v)) for row in rows]
            costs.append(_nearest(top, 0, None, [p * x for x in target],
                                  target, [0] * n, low, weight, q, s))
        return costs


def _nearest(level, partial, best, centers, target, shifts, low, weight,
             q, s):
    """The incumbent after searching level and the levels below it.

    shifts[j] = S z_j - target_j for the levels j above, which fix the
    center C / Q of this level.  The candidates come in order of
    distance from the center: the nearest integer (2C + Q) // 2Q, then
    the two sides in turn, nearer side first.  The cost of a candidate
    grows with that distance and the incumbent only falls, so the first
    pruned candidate ends the level.  At level 0 the nearest integer
    alone is the optimum.
    """
    c = centers[level]
    row = low[level]
    for j in range(level + 1, len(centers)):
        c -= row[j] * shifts[j]
    wl = weight[level]
    z = (2 * c + q) // (2 * q)
    r = q * z - c
    cost = partial + wl * r * r
    if best is not None and cost >= best:
        return best
    if not level:
        return cost
    tl = target[level]
    shifts[level] = s * z - tl
    best = _nearest(level - 1, cost, best, centers, target, shifts, low,
                    weight, q, s)
    # |r| <= Q / 2; z - 1 is the nearer side when r > 0
    step = -1 if r > 0 else 1
    k = step
    while True:
        for y in (z + k, z - k):
            r = q * y - c
            cost = partial + wl * r * r
            if cost >= best:
                return best
            shifts[level] = s * y - tl
            best = _nearest(level - 1, cost, best, centers, target, shifts,
                            low, weight, q, s)
        k += step
