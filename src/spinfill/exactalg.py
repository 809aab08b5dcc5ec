"""Exact integer linear algebra kernels.

Everything runs on plain Python ints: the eliminations are
fraction-free and the GF(2) rows are int bitmasks, so there is no
overflow and no rounding; obstruction verdicts downstream rely on these
results being exact.  Matrices are lists/tuples of rows.
"""
from __future__ import annotations

import math
from functools import cached_property
from itertools import repeat
from operator import mul

from .errors import CertificationFailure, Singular, SpinfillError
from .graphs import FrozenValue, MarkedGraph


class GoeritzForm(FrozenValue):
    """Laplacian of the white graph with the marked row/column deleted.

    matrix[i][i] = -deg(v_i) in the full graph, matrix[i][j] = number of
    edges between v_i and v_j; vertex_order lists the unmarked vertices.
    Two forms are equal when their matrices and vertex orders are.
    """
    _fields = ("matrix", "vertex_order")

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
        raise SpinfillError("graph carries no marked vertex")
    order = tuple(v for v in w.vertices if v != w.marked)
    if not order:
        raise SpinfillError("no unmarked vertices")
    degrees = w.degrees
    return GoeritzForm(_edge_matrix(order, [-degrees[v] for v in order],
                                    w.edges, repeat(1)), order)


def _edge_matrix(order, diagonal, edges, signs):
    """The symmetric matrix on order, as a tuple of rows, with the given
    diagonal and, off it, the signed count of the edges joining each
    pair, in one pass over the edges; an edge with an end outside order
    is skipped.  goeritz gives every edge sign 1, a chainmail link its
    clasp signs."""
    n = len(order)
    index = {v: i for i, v in enumerate(order)}
    mat = [[0] * n for _ in range(n)]
    for i, x in enumerate(diagonal):
        mat[i][i] = x
    for (u, v, _), sign in zip(edges, signs):
        i = index.get(u)
        j = index.get(v)
        if i is not None and j is not None:
            mat[i][j] += sign
            mat[j][i] += sign
    return tuple(map(tuple, mat))


def _require_square(m):
    n = len(m)
    if any(len(row) != n for row in m):
        raise SpinfillError("matrix is not square")
    return n


def signature(m) -> tuple:
    """Inertia (n+, n-, n0) of a symmetric matrix, by exact congruence.

    A fraction-free symmetric elimination (Bareiss): each step removes
    the first index of the trailing block, and the block's entries stay
    integers, its rational Schur complement times the previous pivot.
    The D-value of a step is its pivot over the previous pivot, so its
    sign is the product of their signs.  A zero pivot is repaired by a
    congruence: swap in a later nonzero diagonal entry; else add a row
    and column with a nonzero entry off the diagonal, which makes the
    pivot twice that entry; else the index is a zero of the form and is
    dropped.
    """
    n = _require_square(m)
    for i in range(n):
        for j in range(n):
            if m[i][j] != m[j][i]:
                raise SpinfillError("matrix is not symmetric")
    a = [list(row) for row in m]
    pos = neg = zero = 0
    prev = 1
    while a:
        top = a[0]
        if not top[0]:
            j = next((r for r in range(1, len(a)) if a[r][r]), None)
            if j is not None:
                a[0], a[j] = a[j], top
                for row in a:
                    row[0], row[j] = row[j], row[0]
            else:
                j = next((c for c in range(1, len(a)) if top[c]), None)
                if j is None:
                    zero += 1
                    a = [row[1:] for row in a[1:]]
                    continue
                a[0] = [x + y for x, y in zip(top, a[j])]
                for row in a:
                    row[0] += row[j]
            top = a[0]
        p = top[0]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        rest = top[1:]
        a = [[(p * x - row[0] * y) // prev for x, y in zip(row[1:], rest)]
             for row in a[1:]]
        prev = p
    return (pos, neg, zero)


def _parity_rows(matrix):
    """The rows of M y = diag(M) over GF(2), as ints: row i has column j
    at bit j and M[i][i] mod 2 at bit n."""
    n = len(matrix)
    rows = []
    for i, row in enumerate(matrix):
        r = (row[i] & 1) << n
        for j, x in enumerate(row):
            if x & 1:
                r |= 1 << j
        rows.append(r)
    return tuple(rows)


def _characteristic_supports(matrix, labels):
    """Supports of every y with M y = diag(M) over GF(2).

    Row i of the system is an int (_parity_rows): column j at bit j,
    M[i][i] at bit n.  One Gauss-Jordan pass keeps a reduced row per
    pivot bit, the lowest bit of its row and set in no other kept row;
    the solutions then double over the free columns, lowest first.
    Each support is the tuple of labels where y is 1; the list is sorted
    by size, then by the labels' strings.  The count is a power of two.
    """
    n = len(matrix)
    columns = (1 << n) - 1
    reduced = {}
    for r in _parity_rows(matrix):
        for bit, kept in reduced.items():
            if r & bit:
                r ^= kept
        if not r & columns:
            if r:
                raise CertificationFailure(
                    "exactalg._characteristic_supports: M y = diag(M) has no "
                    "GF(2) solution (rank %d)" % n)
            continue
        bit = r & -r
        for b, kept in reduced.items():
            if kept & bit:
                reduced[b] = kept ^ r
        reduced[bit] = r
    solutions = [sum(bit for bit, kept in reduced.items() if kept >> n)]
    for j in range(n):
        free = 1 << j
        if free not in reduced:
            step = free | sum(bit for bit, kept in reduced.items()
                              if kept & free)
            solutions += [y ^ step for y in solutions]
    out = [tuple(v for j, v in enumerate(labels) if y >> j & 1)
           for y in solutions]
    out.sort(key=lambda t: (len(t), tuple(map(str, t))))
    return out


def hnf_basis(m):
    """Column Hermite form of a nonsingular integer matrix.

    Returns an upper-triangular basis of the column lattice: column j
    has its pivot H[j][j] > 0, zeros below row j and every entry above
    the pivots reduced, 0 <= H[k][j] < H[k][k].
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
    # column j minus multiples of the columns to its left, rows j-1 down
    # to 0: each step leaves the rows below it alone
    for j in range(1, n):
        col = cols[j]
        for k in range(j - 1, -1, -1):
            q = col[k] // cols[k][k]
            if q:
                col = [x - q * y for x, y in zip(col, cols[k])]
        cols[j] = col
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
    Singular.  det is det A, the last leading minor.  target_columns[i]
    is adj(A) e_i in elimination order, so the search target of a
    covector v is the sum of v[i] target_columns[i].
    """

    def __init__(self, g: GoeritzForm):
        m = self.m = g.m
        a = g.matrix
        order = sorted(range(m), key=lambda i: (-a[i][i], i))
        pivots, low, adj = _sweep([[-a[i][j] for j in order] for i in order])
        # the swept adjugate is adj(A) with rows and columns in `order`;
        # adj(A) is symmetric, so its row place[i] is column i
        place = [0] * m
        for k, i in enumerate(order):
            place[i] = k
        self.target_columns = tuple(adj[place[i]] for i in range(m))
        self.order = tuple(order)
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
        w = [v[j] for j in self.order]
        return sum(x * sum(map(mul, column, w))
                   for x, column in zip(v, self.target_columns) if x)

    def min_costs(self, targets):
        """W Q^2 min over integer y of (y - t)^T A (y - t) for each
        target adj(A) v, in order, where t = adj(A) v / S.

        Each target is adj(A) v in elimination order, the sum of v[i]
        target_columns[i] for a covector v in vertex order.  Each gets
        its own depth-first Schnorr-Euchner search over the LDL cone
        (_nearest) with incumbent pruning, from level m - 1 down.

        Every v must be characteristic: v_i = A_ii (mod 2), as every
        key of the Hermite box is.  Then, with t = A^-1 v / 2,

            (y - t)^T A (y - t) = y^T A y - y^T v + v^T A^-1 v / 4

        and y^T A y = sum A_ii y_i^2 = sum A_ii y_i = y^T v (mod 2), so
        the costs of all y differ by even integers: scaled by W Q^2 they
        lie in one class modulo 2 W Q^2.  A branch whose partial cost
        exceeds best - 2 W Q^2 can therefore not improve on best, and the
        search cuts it.  On other covectors the result may be too large.
        """
        n, p, q, s = self.m, self.p, self.q, self.s
        low, weight = self.low, self.weight
        gap = 2 * self.denominator
        top = n - 1
        costs = []
        for target in targets:
            costs.append(_nearest(top, 0, None, [p * x for x in target],
                                  target, [0] * n, low, weight, q, s, gap))
        return costs


def _nearest(level, partial, best, centers, target, shifts, low, weight,
             q, s, gap):
    """The incumbent after searching level and the levels below it.

    shifts[j] = S z_j - target_j for the levels j above, which fix the
    center C / Q of this level.  The candidates come in order of
    distance from the center: the nearest integer (2C + Q) // 2Q, then
    the two sides in turn, nearer side first.  The cost of a candidate
    grows with that distance and the incumbent only falls, so the first
    pruned candidate ends the level.  A candidate is pruned when its
    cost + gap exceeds the incumbent: a better leaf is cheaper by at
    least gap (min_costs).  At level 0 the nearest integer alone is the
    optimum.
    """
    c = centers[level]
    row = low[level]
    for j in range(level + 1, len(centers)):
        c -= row[j] * shifts[j]
    wl = weight[level]
    z = (2 * c + q) // (2 * q)
    r = q * z - c
    cost = partial + wl * r * r
    if best is not None and cost + gap > best:
        return best
    if not level:
        return cost
    tl = target[level]
    shifts[level] = s * z - tl
    best = _nearest(level - 1, cost, best, centers, target, shifts, low,
                    weight, q, s, gap)
    # |r| <= Q / 2; z - 1 is the nearer side when r > 0
    step = -1 if r > 0 else 1
    k = step
    while True:
        for y in (z + k, z - k):
            r = q * y - c
            cost = partial + wl * r * r
            if cost + gap > best:
                return best
            shifts[level] = s * y - tl
            best = _nearest(level - 1, cost, best, centers, target, shifts,
                            low, weight, q, s, gap)
        k += step
