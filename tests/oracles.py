"""Slow reference implementations and random generators for the tests.

None of these run on a library path: they are independent oracles the
tests compare the library against (spanning-tree counts, determinants
and adjugates, the inertia by a Fraction elimination, isomorphism, rational solves, orbit maxima and the d
table by one lattice search per class in the vertex-order kernel, the
spin class by a rescan of the table, the Kauffman states as region
assignments with a covector per state, the spin-c table as row dicts,
the Kaplan filling by explicit blow-ups and a blow-down, the enclosed-vertex test of mk1's pair rule
by face tracing, tree validation edge by edge, the f >= 9 m Furuta
rule, the checkerboard coloring by search, the black graph as the white
graph of the mirror, the simple cycles by path search, the lens-space
d-invariants by the Ozsvath-Szabo recursion), helpers only the
tests call (matvec, bridges, parallel edge counts, one class's d by the
library's search, the DimensionMismatch of the rational solves) and seeded
generators of test inputs, the medial PD code of a plane graph and the
chain graph of a fraction p/q among them.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
import math
from fractions import Fraction
from itertools import product

from spinfill.chainmail import ChainmailLink, FillingStats, is_characteristic
from spinfill.diagram import KnotDiagram, parse_pd, white_graph
from spinfill.errors import (CertificationFailure, Disconnected,
                             MalformedInput, NonNegativeFraming, NonPlanar,
                             NotAlternating, NotATree, NotCharacteristic,
                             NotReduced, Singular, SpinfillError)
from spinfill.exactalg import GoeritzForm, _require_square, signature
from spinfill.graphs import (MarkedGraph, _dart_orbits, _face_successor,
                             _reach, euler_check, trace_faces)
from spinfill.plumbing import PlumbingTree, neg_cf
from spinfill.spinc import canonical_key


class DimensionMismatch(SpinfillError):
    """A vector's length is not the matrix's size."""


def matvec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def spanning_tree_count(graph: MarkedGraph) -> int:
    """Number of spanning trees, by deletion-contraction.

    Kept deliberately independent of the determinant code path so the
    two can cross-check each other.  Parallel families are handled in
    one step: delete the whole family or contract it (times its size).
    """
    if not graph.is_connected():
        raise Disconnected("spanning trees need a connected graph")
    mult = {}
    for u, v, _ in graph.edges:
        key = (u, v) if str(u) <= str(v) else (v, u)
        mult[key] = mult.get(key, 0) + 1
    verts = frozenset(graph.vertices)
    memo = {}

    def connected(vs, edges):
        if not vs:
            return True
        adj = {v: [] for v in vs}
        for (u, v) in edges:
            adj[u].append(v)
            adj[v].append(u)
        return len(_reach(next(iter(vs)), adj.__getitem__)) == len(vs)

    def count(vs, mult):
        if len(vs) == 1:
            return 1
        key = (vs, frozenset(mult.items()))
        if key in memo:
            return memo[key]
        if not connected(vs, mult):
            memo[key] = 0
            return 0
        (u, v) = min(mult, key=lambda p: (str(p[0]), str(p[1])))
        k = mult[(u, v)]
        rest = dict(mult)
        del rest[(u, v)]
        total = count(vs, rest) if rest else 0
        merged = {}
        for (a, b), c in rest.items():
            a2 = u if a == v else a
            b2 = u if b == v else b
            if a2 == b2:
                continue
            key2 = (a2, b2) if str(a2) <= str(b2) else (b2, a2)
            merged[key2] = merged.get(key2, 0) + c
        total += k * count(vs - {v}, merged)
        memo[key] = total
        return total

    return count(verts, mult)


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


def signature_by_fractions(m, repairs=None) -> tuple:
    """Inertia (n+, n-, n0) of a symmetric matrix by congruence over the
    rationals: the Fraction elimination the library used before its
    fraction-free one.

    A zero pivot swaps in a later nonzero diagonal entry, else adds a
    row and column with a nonzero entry off the diagonal, else counts a
    zero.  The library's trailing block is this one's times a nonzero
    pivot, so both take the same repairs at the same steps; repairs,
    when given (a Counter), counts them as "swap", "add" and "zero".
    """
    n = _require_square(m)
    a = [[Fraction(x) for x in row] for row in m]
    pos = neg = zero = 0
    i = 0
    while i < n:
        if a[i][i] == 0:
            j = next((r for r in range(i + 1, n) if a[r][r] != 0), None)
            kind = "swap"
            if j is None:
                j = next((c for c in range(i + 1, n) if a[i][c] != 0), None)
                kind = "zero" if j is None else "add"
            if repairs is not None:
                repairs[kind] += 1
            if kind == "zero":
                zero += 1
                i += 1
                continue
            if kind == "swap":
                for r in range(n):
                    a[i][r], a[j][r] = a[j][r], a[i][r]
                for r in range(n):
                    a[r][i], a[r][j] = a[r][j], a[r][i]
            else:
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


def solve_rational(m, b):
    """Unique exact solution of m x = b; raises Singular otherwise."""
    n = _require_square(m)
    if len(b) != n:
        raise DimensionMismatch("vector length %d != %d" % (len(b), n))
    a = [[Fraction(x) for x in row] + [Fraction(bi)]
         for row, bi in zip(m, b)]
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot is None:
            raise Singular("matrix is singular")
        a[k], a[pivot] = a[pivot], a[k]
        for r in range(n):
            if r != k and a[r][k]:
                f = a[r][k] / a[k][k]
                for c in range(k, n + 1):
                    a[r][c] -= f * a[k][c]
    return tuple(a[i][n] / a[i][i] for i in range(n))


def quadform_q(g, v) -> Fraction:
    """Exact v^T M^{-1} v for the Goeritz form (or any invertible M)."""
    matrix = g.matrix if isinstance(g, GoeritzForm) else g
    if len(v) != len(matrix):
        raise DimensionMismatch("vector length %d != %d" % (len(v), len(matrix)))
    x = solve_rational(matrix, v)
    return sum((Fraction(vi) * xi for vi, xi in zip(v, x)), Fraction(0))


def is_integral(values) -> bool:
    return all(Fraction(x).denominator == 1 for x in values)


def same_class(g: GoeritzForm, v1, v2) -> bool:
    """Orbit equality: (v1 - v2)/2 must be an integral image of G."""
    diff = [a - b for a, b in zip(v1, v2)]
    if any(x % 2 for x in diff):
        return False
    sol = solve_rational(g.matrix, [x // 2 for x in diff])
    return is_integral(sol)


def box_keys(g: GoeritzForm):
    """Spin-c keys as the sorted canonical_key images of the Hermite box
    shifted to start at the diagonal, one characteristic point per class."""
    box = product(*(range(x, x + 2 * g.hermite[i][i], 2)
                    for i, x in enumerate(g.diagonal)))
    return sorted({canonical_key(g, v) for v in box})


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


class ZigzagKernel:
    """Closest-vector data of one Goeritz form, factored in vertex order.

    The library's OrbitKernel before it took an elimination order and a
    nearest-first search, kept as the certifier of that search.  For
    A = -G the orbit maximum of v is -4 min_y (y - t)^T A (y - t) with
    t = adj(A) v / (2 det A).  The LDL^T factors of A and the target
    share the denominators P = lcm of the leading minors and S = 2 det A,
    so with Q = P S every search center is C / Q for an integer C, and
    every partial cost is an integer over the fixed constant W Q^2.
    """

    def __init__(self, g: GoeritzForm):
        self.m = g.m
        pivots, low, self.adj = _sweep([[-x for x in row]
                                        for row in g.matrix])
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
                       for k in range(self.m)]
        self.denominator = w * self.q * self.q

    def min_cost(self, target):
        """W Q^2 min over integer y of (y - t)^T A (y - t), t = target / S.

        Depth-first enumeration over the LDL cone with incumbent pruning;
        per level the candidates zigzag outward from the real center, so
        once both frontier candidates prune, the level is exhausted.
        """
        n, q, s = self.m, self.q, self.s
        low, weight = self.low, self.weight
        centers = [self.p * x for x in target]
        shifts = [0] * n          # S z_j - target_j on the levels above
        best = None

        def search(level, partial):
            nonlocal best
            if level < 0:
                if best is None or partial < best:
                    best = partial
                return
            c = centers[level]
            row = low[level]
            for j in range(level + 1, n):
                c -= row[j] * shifts[j]
            wl = weight[level]
            tl = target[level]
            base = c // q
            offset = 0
            while True:
                pruned = 0
                for z in (base - offset, base + offset + 1):
                    r = q * z - c
                    cost = partial + wl * r * r
                    if best is not None and cost >= best:
                        pruned += 1
                        continue
                    shifts[level] = s * z - tl
                    search(level - 1, cost)
                if pruned == 2:
                    break
                offset += 1

        search(n - 1, 0)
        return best

    def orbit_max_q(self, covector) -> Fraction:
        return Fraction(-4 * self.min_cost(matvec(self.adj, covector)),
                        self.denominator)


def orbit_max_q(g: GoeritzForm, covector) -> Fraction:
    """Exact max of v^T G^{-1} v over the orbit of a covector.

    Writing v = v0 + 2Gy turns the maximum over integer y into a closest
    vector problem for the positive form -G, solved by ZigzagKernel.
    """
    return ZigzagKernel(g).orbit_max_q(covector)


def d_by_search(g: GoeritzForm):
    """d = (q + m) / 4 of every spin-c class by its own ZigzagKernel
    search, keyed by box_keys: the per-class table, without the
    conjugation pairing and independent of the library's search."""
    kernel = ZigzagKernel(g)
    return {key: (kernel.orbit_max_q(key) + g.m) / 4 for key in box_keys(g)}


def search_target(kernel, covector):
    """The search target adj(A) v of a covector v in vertex order, in
    the kernel's elimination order: sum of v[i] target_columns[i]."""
    return [sum(x * col[k] for x, col in zip(covector, kernel.target_columns))
            for k in range(kernel.m)]


def d_invariant(g: GoeritzForm, covector) -> Fraction:
    """d = (q + m) / 4 of the class of one characteristic covector, by
    a one-target call of the library's batched search
    OrbitKernel.min_costs, which enumerate_spinc makes once per form with
    every pair representative.
    The value is a reduced Fraction, so it does not depend on the
    kernel's elimination order."""
    kernel = g.kernel
    (best,) = kernel.min_costs((search_target(kernel, covector),))
    return Fraction(g.m * kernel.denominator - 4 * best,
                    4 * kernel.denominator)


def spin_class(classes):
    """The unique class with vanishing coker class (odd determinant),
    found by a rescan of the table."""
    hits = [c for c in classes if c.is_spin()]
    if len(hits) != 1:
        raise CertificationFailure(
            "expected a unique spin class, found %d" % len(hits))
    return hits[0]


def spinc_rows(classes):
    """The spin-c table as row dicts, the way the CLI built it before it
    wrote the records themselves; json.dumps of a report holding these
    rows is the text that cli.encode_json writes for the records."""
    table = []
    for c in classes:
        row = {"key": list(c.canonical_key), "d": str(c.d)}
        if c.c1_class is not None:
            row["c1"] = list(c.c1_class)
            row["spin"] = c.is_spin()
        if c.state_index is not None:
            row["state"] = c.state_index
        table.append(row)
    return table


def edge_multiplicity(g: MarkedGraph) -> Counter:
    """Unordered vertex pair (a frozenset) -> number of parallel edges."""
    return Counter(frozenset((u, v)) for u, v, _ in g.edges)


def bridges(g: MarkedGraph):
    """Edge indices whose removal disconnects the graph, in order.
    Parallel copies are never bridges."""
    return [i for i in range(len(g.edges))
            if not MarkedGraph(g.vertices,
                               g.edges[:i] + g.edges[i + 1:]).is_connected()]


def simple_cycles(g: MarkedGraph):
    """Every simple cycle of g, as a frozenset of edge indices.

    Each cycle is found from its first vertex in g.vertices, by a search
    over the paths on later vertices that return to it; two parallel
    edges make a 2-cycle.
    """
    incident = {v: [] for v in g.vertices}
    for ei, (u, v, _) in enumerate(g.edges):
        incident[u].append((v, ei))
        incident[v].append((u, ei))
    rank = g.index
    cycles = set()

    def extend(start, v, path, on_path):
        for w, ei in incident[v]:
            if w == start and ei not in path:
                cycles.add(frozenset(path + [ei]))
            elif w not in on_path and rank[w] > rank[start]:
                extend(start, w, path + [ei], on_path | {w})

    for start in g.vertices:
        extend(start, start, [], {start})
    return cycles


def multigraph_isomorphic(g1: MarkedGraph, g2: MarkedGraph, respect_marked=True):
    """Backtracking isomorphism test on small multigraphs."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    if sorted(g1.degrees.values()) != sorted(g2.degrees.values()):
        return False
    vs1 = sorted(g1.vertices, key=lambda v: (-g1.degree(v), str(v)))
    cand = {
        v: [w for w in g2.vertices if g2.degree(w) == g1.degree(v)]
        for v in vs1
    }
    if respect_marked and (g1.marked is None) != (g2.marked is None):
        return False
    mult1, mult2 = edge_multiplicity(g1), edge_multiplicity(g2)

    def extend(i, mapping, used):
        if i == len(vs1):
            return True
        v = vs1[i]
        for w in cand[v]:
            if w in used:
                continue
            if respect_marked and g1.marked is not None:
                if (v == g1.marked) != (w == g2.marked):
                    continue
            ok = True
            for u, img in mapping.items():
                if (mult1[frozenset((v, u))]
                        != mult2[frozenset((w, img))]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(i + 1, mapping, used):
                    return True
                del mapping[v]
                used.remove(w)
        return False

    return extend(0, {}, set())


def face_corners(g: MarkedGraph, face):
    """Corner tokens (vertex, gap index) swept by a face.

    The corner for a dart d is taken at the far end of d: the gap in
    that vertex's rotation between the opposite dart and its successor.
    Gap index i denotes the slot just before rotation entry i.
    """
    pos = {}
    for v, rot in zip(g.vertices, g.rotations):
        for i, d in enumerate(rot):
            pos[d] = (v, i)
    corners = []
    for d in face:
        opp = (d[0], 1 - d[1])
        w, i = pos[opp]
        corners.append((w, (i + 1) % len(g.rotations[g.index[w]])))
    return corners


def gen_plane_multigraph(rng, n_vertices, n_extra_edges, marked=True,
                         bridgeless=False):
    """Random connected loopless plane multigraph with rotations.

    Grows a tree by hanging leaves at random rotation gaps, then adds
    edges between two corners of a common face, which keeps the rotation
    system planar by construction.  With bridgeless=True every bridge is
    doubled at the end (a parallel copy drawn alongside it).
    """
    if n_vertices < 2:
        raise ValueError("need at least two vertices")
    edges = [(0, 1)]
    rot = {0: [(0, 0)], 1: [(0, 1)]}
    nv = 2
    while nv < n_vertices:
        w = rng.randrange(nv)
        gap = rng.randrange(max(1, len(rot[w])))
        e = len(edges)
        edges.append((w, nv))
        rot[w].insert(gap, (e, 0))
        rot[nv] = [(e, 1)]
        nv += 1

    def build():
        return MarkedGraph(
            tuple(range(nv)),
            tuple((u, v, i) for i, (u, v) in enumerate(edges)),
            marked=0 if marked else None,
            rotations=tuple(tuple(rot[v]) for v in range(nv)),
        )

    added = 0
    attempts = 0
    while added < n_extra_edges and attempts < 50 * (n_extra_edges + 1):
        attempts += 1
        g = build()
        faces = trace_faces(g)
        face = faces[rng.randrange(len(faces))]
        corners = face_corners(g, face)
        if len(corners) < 2:
            continue
        c1 = corners[rng.randrange(len(corners))]
        c2 = corners[rng.randrange(len(corners))]
        if c1[0] == c2[0]:
            continue
        (u, gu), (v, gv) = c1, c2
        e = len(edges)
        edges.append((u, v))
        rot[u].insert(gu, (e, 0))
        rot[v].insert(gv, (e, 1))
        added += 1

    if bridgeless:
        g = build()
        for ei in bridges(g):
            u, v, _ = g.edges[ei]
            e = len(edges)
            edges.append((u, v))
            rot[u].insert(rot[u].index((ei, 0)) + 1, (e, 0))
            rot[v].insert(rot[v].index((ei, 1)) + 1, (e, 1))

    g = build()
    euler_check(g)
    return g


def encloses_by_faces(work, u, v) -> bool:
    """Whether the parallel family between u and v in a chainmail
    _PlaneWork encloses another vertex, relative to the tracked outer
    face, by tracing every face of the working embedding.

    Faces of the whole drawing are merged across every edge outside
    the family; the classes are the faces of the two-vertex
    subgraph.  Vertices not in the outer class are inside.  With no
    tracked outer face the largest face is taken to be outside.
    """
    family = {e for e, (a, b) in work.edges.items() if {a, b} == {u, v}}
    if len(family) <= 1:
        return False
    darts = ((e, end) for e in work.edges for end in (0, 1))
    faces = _dart_orbits(darts, _face_successor(work.rot.values()))
    side = {}
    for fi, face in enumerate(faces):
        for d in face:
            side[d] = fi
    parent = list(range(len(faces)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in work.edges:
        if e not in family:
            a, b = find(side[(e, 0)]), find(side[(e, 1)])
            if a != b:
                parent[a] = b
    if work.outer is not None and work.outer in side:
        outer_class = find(side[work.outer])
    else:
        # largest face fallback
        big = max(range(len(faces)), key=lambda i: (len(faces[i]), -i))
        outer_class = find(big)
    inside = set()
    for w, rot in work.rot.items():
        if w in (u, v) or not rot:
            continue
        cls = find(side[rot[0]])
        if cls != outer_class:
            inside.add(w)
    return bool(inside)


def cf_value(terms):
    """Evaluate a negative continued fraction back to a fraction."""
    val = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        val = a - 1 / val
    return val


def lens_d(p, q):
    """d(-L(p, q), i) for i = 0, ..., p - 1, by the recursion of
    Ozsvath-Szabo (Absolutely graded Floer homologies..., Adv. Math.
    2003, Prop. 4.8): d(-L(p, q), i) = ((2i + 1 - p - q)^2 - pq) / (4pq)
    - d(-L(q, r), i mod q) with r = p mod q, and d(L(1, q)) = 0."""
    if p == 1:
        return [Fraction(0)]
    inner = lens_d(q, p % q)
    return [Fraction((2 * i + 1 - p - q) ** 2 - p * q, 4 * p * q)
            - inner[i % q] for i in range(p)]


def chain_graph(p, q) -> MarkedGraph:
    """The white graph whose Goeritz form is the linear plumbing of
    p/q = [a1, ..., ak] (neg_cf): a path v1, ..., vk, and ai minus its
    path degree edges from each vi to the marked hub "h".

    The rotations draw the path left to right with the hub below it.
    Counterclockwise from east, vi meets v(i+1), then v(i-1), then its
    hub edges from left to right; the hub meets the bundles of vk down
    to v1, each from right to left.
    """
    weights = neg_cf(p, q)
    k = len(weights)
    pairs = [(i, i + 1) for i in range(1, k)]
    for i, a in enumerate(weights, 1):
        pairs += [("h", i)] * (a - (i > 1) - (i < k))
    edges = tuple((u, v, e) for e, (u, v) in enumerate(pairs))
    # edge i - 1 joins vi to v(i+1); the hub edges follow, v1's first
    hub_edges = range(k - 1, len(edges))
    rots = {"h": [(e, 0) for e in reversed(hub_edges)]}
    for i in range(1, k + 1):
        east = [(i - 1, 0)] if i < k else []
        west = [(i - 2, 1)] if i > 1 else []
        rots[i] = east + west + [(e, 1) for e in hub_edges if edges[e][1] == i]
    vertices = ("h",) + tuple(range(1, k + 1))
    return MarkedGraph(vertices, edges, marked="h",
                       rotations=tuple(tuple(rots[v]) for v in vertices))


def canonical_form(tree: PlumbingTree):
    """Isomorphism-invariant encoding of a weighted tree.

    Rooted canonical encodings minimized over all root choices; two
    trees compare equal exactly when there is a weight-preserving
    isomorphism.
    """
    if tree.empty:
        return ("empty",)
    adj = {v: tree.neighbors(v) for v in tree.vertices}
    wmap = {v: w for v, w in zip(tree.vertices, tree.weights)}

    def encode(v, parent):
        subs = sorted(encode(u, v) for u in adj[v] if u != parent)
        return (wmap[v], tuple(subs))

    return min(encode(r, None) for r in tree.vertices)


def check_tree_per_edge(vertices, edges):
    """Tree validation one edge at a time, in edge order; returns the
    adjacency or raises the first fault."""
    vs = set(vertices)
    if len(vs) != len(vertices):
        raise MalformedInput("duplicate vertex ids")
    seen_pairs = set()
    adj = {v: [] for v in vertices}
    for (u, v) in edges:
        if u not in vs or v not in vs:
            raise NotATree("edge endpoint not in vertex set")
        if u == v:
            raise NotATree("loop edge in tree")
        key = frozenset((u, v))
        if key in seen_pairs:
            raise NotATree("parallel edges in tree")
        seen_pairs.add(key)
        adj[u].append(v)
        adj[v].append(u)
    if not vertices:
        return adj
    if len(edges) != len(vertices) - 1:
        raise NotATree("edge count must be vertex count minus one")
    if len(_reach(vertices[0], adj.__getitem__)) != len(vertices):
        raise NotATree("tree must be connected")
    return adj


def random_tree(rng, n, weight_range=(-5, -1)):
    """Random weighted tree on n vertices (uniform attachment)."""
    vs = tuple(range(n))
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    weights = tuple(rng.randint(weight_range[0], weight_range[1])
                    for _ in range(n))
    return PlumbingTree(vs, weights, tuple(edges))


def random_excessive_tree(rng, n, extra=3):
    """Random excessive tree: weights pushed below min(-2, -degree)."""
    base = random_tree(rng, n)
    weights = tuple(min(-2, -base.degree(v)) - rng.randrange(extra)
                    for v in base.vertices)
    return PlumbingTree(base.vertices, weights, base.edges)


def shuffled_tree(rng, tree: PlumbingTree) -> PlumbingTree:
    """The same tree with its vertex order (weights permuted to match)
    and its edge list shuffled.  The reduction engine takes moves in
    vertex position order, so the shuffle changes the move order."""
    order = list(range(len(tree.vertices)))
    rng.shuffle(order)
    edges = list(tree.edges)
    rng.shuffle(edges)
    return PlumbingTree(tuple(tree.vertices[i] for i in order),
                        tuple(tree.weights[i] for i in order), tuple(edges))


def intersection_matrix(tree: PlumbingTree):
    n = len(tree.vertices)
    idx = {v: i for i, v in enumerate(tree.vertices)}
    mat = [[0] * n for _ in range(n)]
    for i, w in enumerate(tree.weights):
        mat[i][i] = w
    for (u, v) in tree.edges:
        mat[idx[u]][idx[v]] += 1
        mat[idx[v]][idx[u]] += 1
    return tuple(tuple(row) for row in mat)


def mu_bar(tree, c_vertices) -> Fraction:
    """Spin defect of a plumbing: (signature - <w_C, w_C>) / 8.

    The tree's intersection matrix supplies both terms; when the subset
    spans no edge and the tree is negative definite, the identity
    8 mu = cut - vertex count is asserted.
    """
    if not isinstance(tree, PlumbingTree):
        raise NotATree("mu_bar needs a plumbing tree")
    mat = intersection_matrix(tree)
    sig = signature(mat)
    sigma = sig[0] - sig[1]
    idx = {v: i for i, v in enumerate(tree.vertices)}
    w = [0] * len(tree.vertices)
    for v in c_vertices:
        w[idx[v]] = 1
    pairing = sum(wi * x for wi, x in zip(w, matvec(mat, w)))
    mu = Fraction(sigma - pairing, 8)
    inside = set(c_vertices)
    spans_edge = any(u in inside and v in inside for (u, v) in tree.edges)
    if not spans_edge and sig == (0, len(tree.vertices), 0):
        cut = sum(-tree.weight(v) for v in c_vertices)
        assert 8 * mu == -len(tree.vertices) + cut, \
            "8 mu must equal cut minus vertex count for definite trees"
    return mu


def diagram_from_plane_graph(g: MarkedGraph):
    """PD code of the alternating diagram whose white graph is g.

    This is the medial construction: one crossing per edge, one arc per
    rotation gap, over/under fixed so that the package's checkerboard
    convention recovers g (up to isomorphism) as the white graph.  The
    input must be connected, loopless and bridgeless.  The tests draw
    their alternating diagrams from generated plane graphs with it.
    """
    if g.rotations is None:
        raise MalformedInput("plane graph needs a rotation system")
    if not g.is_connected():
        raise Disconnected("medial construction needs a connected graph")
    if not g.edges:
        raise MalformedInput("graph has no edges")
    if bridges(g):
        raise NotReduced("bridges give nugatory crossings")
    euler_check(g)

    # Arc per gap: arc (v, i) runs between the crossings of rotation
    # entries i-1 and i at v, hugging v.
    arc_id = {}
    for v in g.vertices:
        rot = g.rotation_of(v)
        for i in range(len(rot)):
            arc_id[(v, i)] = len(arc_id) + 1

    def arc_after(dart):
        # Gap counterclockwise after this dart: under-strand end.
        v = g.endpoint(dart)
        rot = g.rotation_of(v)
        i = rot.index(dart)
        return arc_id[(v, (i + 1) % len(rot))]

    def arc_before(dart):
        # Gap just before this dart: over-strand end.
        v = g.endpoint(dart)
        rot = g.rotation_of(v)
        i = rot.index(dart)
        return arc_id[(v, i)]

    tuples = []
    for e, (u, v, _) in enumerate(g.edges):
        du, dv = (e, 0), (e, 1)
        # Counterclockwise order around the crossing, under ends first.
        tuples.append((arc_after(du), arc_before(du),
                       arc_after(dv), arc_before(dv)))

    arc_ends = {}
    for c, tup in enumerate(tuples):
        for s, a in enumerate(tup):
            arc_ends.setdefault(a, []).append((c, s))

    # Orient each link component by walking straight through crossings;
    # per arc, record which end is its head (the end it runs into).
    head_end = {}
    visited = set()
    for a in sorted(arc_ends):
        if a in visited:
            continue
        current = a
        tail = arc_ends[a][0]
        while True:
            visited.add(current)
            (c1, s1), (c2, s2) = arc_ends[current]
            head = (c2, s2) if (c1, s1) == tail else (c1, s1)
            head_end[current] = head
            c, s = head
            exit_slot = (s + 2) % 4
            nxt = tuples[c][exit_slot]
            if nxt in visited:
                break
            tail = (c, exit_slot)
            current = nxt

    pd = []
    for c, tup in enumerate(tuples):
        s0 = next(s for s in (0, 2) if head_end.get(tup[s]) == (c, s))
        pd.append([tup[(s0 + k) % 4] for k in range(4)])

    doc = {"pd": pd}
    if g.marked is not None:
        rot = g.rotation_of(g.marked)
        doc["marked_arc"] = arc_id[(g.marked, 0)] if rot else None
    return doc


def checkerboard_bfs(diagram: KnotDiagram) -> tuple:
    """The white regions of the unique proper 2-coloring with corners
    0/2 white everywhere, in region order."""
    nreg = len(diagram.regions)
    white = [None] * nreg
    white[diagram.corner_region[0][0]] = True
    # Adjacent regions (across any arc) get opposite colors.
    stack = [diagram.corner_region[0][0]]
    adjacency = {i: set() for i in range(nreg)}
    for c in range(diagram.n):
        for s in range(4):
            a = diagram.corner_region[c][s]
            b = diagram.corner_region[c][(s + 1) % 4]
            adjacency[a].add(b)
            adjacency[b].add(a)
    while stack:
        r = stack.pop()
        for w in adjacency[r]:
            if white[w] is None:
                white[w] = not white[r]
                stack.append(w)
            elif white[w] == white[r]:
                raise NonPlanar("regions are not checkerboard colorable")
    regions = tuple(r for r in range(nreg) if white[r])
    if not convention_ok(diagram, regions):
        # A validated alternating diagram always satisfies the convention
        # in exactly one of the two proper colorings.
        raise NotAlternating("no coloring matches the crossing convention")
    return regions


def convention_ok(diagram: KnotDiagram, white) -> bool:
    """True when every crossing has the white regions at corners 0 and 2
    and no white region at corners 1 and 3."""
    return all(reg[0] in white and reg[2] in white
               and reg[1] not in white and reg[3] not in white
               for reg in diagram.corner_region)


def mirror(diagram: KnotDiagram) -> KnotDiagram:
    """The mirror diagram: every crossing listed from the next slot,
    which swaps over and under, with the same marked arc."""
    return parse_pd({"pd": [t[1:] + t[:1] for t in diagram.crossings],
                     "marked_arc": diagram.marked_arc})


def black_graph(diagram: KnotDiagram) -> MarkedGraph:
    """The black checkerboard graph: the white graph of the mirror."""
    return white_graph(mirror(diagram))


def kauffman_state_assignments(diagram: KnotDiagram):
    """All bijections crossing -> incident unmarked region, as tuples.

    Backtracking over crossings in index order, candidate regions in
    ascending id order, so the output order is deterministic.
    """
    marked = set(diagram.marked_regions)
    candidates = []
    for c in range(diagram.n):
        opts = sorted(set(diagram.corner_region[c]) - marked)
        candidates.append(opts)
    states = []
    used = set()
    assignment = [None] * diagram.n

    def backtrack(c):
        if c == diagram.n:
            states.append(tuple(assignment))
            return
        for r in candidates[c]:
            if r not in used:
                used.add(r)
                assignment[c] = r
                backtrack(c + 1)
                used.remove(r)
        assignment[c] = None

    backtrack(0)
    return states


def state_covector(diagram: KnotDiagram, assignment, white: MarkedGraph):
    """Signed degrees of the state-induced orientation at unmarked whites.

    Each white edge points toward the white corner on the same side of
    the over-strand as the state's chosen corner; the returned vector is
    indexed by the unmarked white vertices in graph order.
    """
    d = {v: 0 for v in white.vertices}
    for c, region in enumerate(assignment):
        reg = diagram.corner_region[c]
        slot = next(s for s in range(4) if reg[s] == region)
        # Corners 0 and 3 sit on the incoming-under side of the
        # over-strand, corners 1 and 2 on the other side.
        head = reg[0] if slot in (0, 3) else reg[2]
        tail = reg[2] if slot in (0, 3) else reg[0]
        d[head] += 1
        d[tail] -= 1
    assert sum(d.values()) == 0, "each edge contributes +1 and -1"
    vec = tuple(d[v] for v in white.vertices if v != white.marked)
    for v, value in zip((v for v in white.vertices if v != white.marked), vec):
        assert (value - white.degree(v)) % 2 == 0, \
            "covector parity must match vertex degree"
    return vec


def is_special(w: MarkedGraph, b: MarkedGraph | None = None) -> bool:
    """All white degrees even; checked against bipartiteness of black."""
    special = all(d % 2 == 0 for d in w.degrees.values())
    if b is not None:
        assert special == _bipartite(b), \
            "even white degrees must match black bipartiteness"
    return special


def _bipartite(g: MarkedGraph) -> bool:
    color = {}
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g.neighbors[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def kaplan_filling_by_moves(link: ChainmailLink, log) -> FillingStats:
    """Spin-filling statistics of the sublink log.subset after sliding,
    blowing up and down; log is mk1_run(link, log.subset).

    Starting from the chainmail filling, the tracked sublink is slid to
    one component with framing -f, its framing is pushed to -1 by f-1
    meridian blow-ups and the component is blown down.  The surviving
    matrix must have an even diagonal, which certifies the spin form.
    """
    subset = log.subset
    if not is_characteristic(link, subset):
        raise NotCharacteristic("subset fails the linking parity test")
    n = len(link.vertices)
    if not subset:
        assert all(row[i] % 2 == 0
                   for i, row in enumerate(link.linking_matrix)), \
            "empty characteristic sublink needs an even diagonal"
        return FillingStats(b2=n, sigma=link.sigma, even_form=True, f=0)

    mat = [list(row) for row in log.final_matrix]
    p = link.graph.index[log.final_vertex]
    framing = mat[p][p]
    if framing >= 0:
        raise NonNegativeFraming(
            "sublink %s slides to framing %d; the Kaplan filling needs a "
            "negative framing" % (list(subset), framing))
    f = -framing
    b2 = n
    sigma = link.sigma

    # f - 1 blow-ups: adjoin a +1-framed meridian and slide over it.
    for _ in range(f - 1):
        for row in mat:
            row.append(0)
        mat.append([0] * (len(mat) + 1))
        mat[-1][-1] = 1
        k = len(mat) - 1
        for j in range(len(mat)):
            mat[p][j] += mat[k][j]
        for i in range(len(mat)):
            mat[i][p] += mat[i][k]
        b2 += 1
        sigma += 1
    assert mat[p][p] == -1

    # Blow down: clear the row/column with the -1 pivot, then delete it.
    for i in range(len(mat)):
        if i == p:
            continue
        c = mat[i][p]
        if c:
            for j in range(len(mat)):
                mat[i][j] += c * mat[p][j]
            for j in range(len(mat)):
                mat[j][i] += c * mat[j][p]
    mat = [[mat[i][j] for j in range(len(mat)) if j != p]
           for i in range(len(mat)) if i != p]
    b2 -= 1
    sigma += 1

    even = all(mat[i][i] % 2 == 0 for i in range(len(mat)))
    assert even, "blown-down matrix must be even on the diagonal"
    return FillingStats(b2=b2, sigma=sigma, even_form=even, f=f)


@dataclass(frozen=True)
class FurutaVerdict:
    m: int
    f: int
    threshold: int
    obstructed: bool
    b2: int | None = None
    b2_feasible: bool | None = None


def furuta_check(m: int, f: int, b2=None) -> FurutaVerdict:
    """Ten-eighths arithmetic for a closed-up spin pairing.

    Obstructed exactly when f >= 9 m.  With a hypothetical b2 the exact
    inequality b2 + m + f - 2 >= 10/8 |m - f - b2| + 2 is evaluated.
    """
    if m < 1 or f < 0:
        raise MalformedInput("need m >= 1 and f >= 0")
    feasible = None
    if b2 is not None:
        lhs = Fraction(b2 + m + f - 2)
        rhs = Fraction(10, 8) * abs(m - f - b2) + 2
        feasible = lhs >= rhs
    return FurutaVerdict(m=m, f=f, threshold=9 * m,
                         obstructed=f >= 9 * m, b2=b2, b2_feasible=feasible)
