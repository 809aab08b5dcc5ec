"""Seeded input documents for the four benchmark workloads.

Everything here is the benchmark's own code: it imports nothing from
spinfill or from the test suite, so the inputs stay fixed while the
program changes.  The same workload and seed always give the same list
of ops; each op is a CLI argument list plus the document fed on stdin,
with the generator's own record of the input (seed, parameters, rank m,
crossings, |det|) that the output checks compare against.

Within a workload no two inputs share a Goeritz matrix under any vertex
order, so the in-process Hermite caches of the program can never serve
one op from another op's work.
"""
from __future__ import annotations

import hashlib
import json
import random
from math import gcd

# Alternating table diagrams, PD convention: counterclockwise from the
# incoming under-strand.  Determinants are the known table values.
TABLE_KNOTS = {
    "trefoil": ([[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]], 3),
    "trefoil_mirror": ([[4, 2, 5, 1], [6, 4, 1, 3], [2, 6, 3, 5]], 3),
    "figure_eight": ([[4, 2, 5, 1], [8, 6, 1, 5], [6, 3, 7, 4],
                      [2, 7, 3, 8]], 5),
    "hopf": ([[4, 1, 3, 2], [2, 3, 1, 4]], 2),
    "5_2": ([[1, 4, 2, 5], [3, 8, 4, 9], [5, 10, 6, 1], [9, 6, 10, 7],
             [7, 2, 8, 3]], 7),
    "6_1": ([[1, 4, 2, 5], [7, 10, 8, 11], [3, 9, 4, 8], [9, 3, 10, 2],
             [5, 12, 6, 1], [11, 6, 12, 7]], 9),
    "6_2": ([[1, 4, 2, 5], [5, 10, 6, 11], [3, 9, 4, 8], [9, 3, 10, 2],
             [7, 12, 8, 1], [11, 6, 12, 7]], 11),
    "6_3": ([[4, 2, 5, 1], [8, 4, 9, 3], [12, 9, 1, 10], [10, 5, 11, 6],
             [6, 11, 7, 12], [2, 8, 3, 7]], 13),
}

WORKLOADS = ("analyze-det", "analyze-pd", "obstruct-det", "slides-plumb")

# |det| rungs of the two det ladders, roughly x1.6 apart from 10 to 600,
# at rank 3-6.  Op cost is about |det| times a per-class cost that grows
# with the rank, so rungs are split by rank: most ops are cheap, a plateau
# of ~25 ops of similar cost (300-400 ms at the seed commit) holds the
# 90th percentile well inside it, and four ops sit above it.  Small |det|
# at high rank hardly exists.
DET_LADDER = (
    # (target |det|, inputs per cycle, ranks cycled through)
    (10, 16, (3, 4)),
    (16, 18, (3, 4, 5)),
    (25, 22, (3, 4, 5, 6)),
    (40, 20, (3, 4)),
    (63, 16, (3, 4)),
    (100, 10, (3, 4)),
    (40, 4, (6,)),
    (100, 5, (5,)),
    (160, 8, (4,)),
    (250, 6, (3,)),
    (400, 2, (3,)),
    (600, 2, (3,)),
)


class Plane:
    """Plane multigraph on vertices 0..n-1 with a rotation system.

    rot[v] lists the darts (edge, end) at v counterclockwise; end 0 is
    the first endpoint of the edge.  Vertex 0 is the marked vertex.
    """

    def __init__(self, n):
        self.n = n
        self.edges = []
        self.rot = [[] for _ in range(n)]

    def copy(self):
        g = Plane(self.n)
        g.edges = list(self.edges)
        g.rot = [list(r) for r in self.rot]
        return g

    def add_edge(self, u, gap_u, v, gap_v):
        e = len(self.edges)
        self.edges.append((u, v))
        self.rot[u].insert(gap_u, (e, 0))
        self.rot[v].insert(gap_v, (e, 1))
        return e

    def double(self, e):
        """Parallel copy of edge e drawn right beside it."""
        u, v = self.edges[e]
        iu = self.rot[u].index((e, 0))
        iv = self.rot[v].index((e, 1))
        return self.add_edge(u, iu + 1, v, iv)

    def faces(self):
        """Faces of the embedding as dart lists: from a dart, walk to the
        far end of its edge and take the next dart counterclockwise."""
        pos = self.positions()
        seen = set()
        out = []
        for e in range(len(self.edges)):
            for end in (0, 1):
                face = []
                d = (e, end)
                while d not in seen:
                    seen.add(d)
                    face.append(d)
                    w, i = pos[(d[0], 1 - d[1])]
                    d = self.rot[w][(i + 1) % len(self.rot[w])]
                if face:
                    out.append(face)
        return out

    def positions(self):
        return {d: (v, i) for v in range(self.n)
                for i, d in enumerate(self.rot[v])}

    def corners(self, face):
        """Rotation gaps (vertex, gap index) a face sweeps; gap i lies
        just before rot[v][i], so inserting a dart there keeps the
        face's side."""
        pos = self.positions()
        out = []
        for d in face:
            w, i = pos[(d[0], 1 - d[1])]
            out.append((w, (i + 1) % len(self.rot[w])))
        return out

    def bridges(self):
        """Edges on no cycle: both sides of a bridge lie on one face."""
        side = {}
        for fi, face in enumerate(self.faces()):
            for d in face:
                side[d] = fi
        return [e for e in range(len(self.edges))
                if side[(e, 0)] == side[(e, 1)]]

    def goeritz(self, marked=0):
        """Laplacian with the marked row and column removed, negated
        on the diagonal: G[i][i] = -deg, G[i][j] = multiplicity."""
        order = [v for v in range(self.n) if v != marked]
        idx = {v: i for i, v in enumerate(order)}
        g = [[0] * len(order) for _ in order]
        for u, v in self.edges:
            for a, b in ((u, v), (v, u)):
                if a in idx:
                    g[idx[a]][idx[a]] -= 1
                    if b in idx:
                        g[idx[a]][idx[b]] += 1
        return g

    def reduced_connected(self, marked=0):
        adj = {v: set() for v in range(self.n) if v != marked}
        for u, v in self.edges:
            if marked not in (u, v):
                adj[u].add(v)
                adj[v].add(u)
        if not adj:
            return False
        start = next(iter(adj))
        seen = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(adj)

    def doc(self):
        return {
            "vertices": [{"id": v} for v in range(self.n)],
            "edges": [[u, v] for u, v in self.edges],
            "marked": 0,
            "rotations": {str(v): [e for e, _ in self.rot[v]]
                          for v in range(self.n)},
        }


def random_plane_tree(rng, n):
    g = Plane(n)
    for v in range(1, n):
        w = rng.randrange(v)
        g.add_edge(w, rng.randrange(len(g.rot[w]) + 1), v, 0)
    return g


def random_plane_cycle(rng, n):
    """Cycle through all n vertices in a seeded order."""
    order = list(range(n))
    rng.shuffle(order)
    g = Plane(n)
    for i, v in enumerate(order):
        w = order[(i + 1) % n]
        g.add_edge(v, len(g.rot[v]), w, 0)
    return g


def add_random_chord(rng, g):
    """Join two distinct corners of one face; planarity is kept."""
    faces = [c for c in map(g.corners, g.faces())
             if len({w for w, _ in c}) > 1]
    face = faces[rng.randrange(len(faces))]
    while True:
        (u, gu), (v, gv) = rng.choice(face), rng.choice(face)
        if u != v:
            return g.add_edge(u, gu, v, gv)


def bridgeless(g):
    """Copy of g with a parallel copy drawn beside each bridge."""
    g = g.copy()
    for e in g.bridges():
        g.double(e)
    return g


def det(matrix):
    """Exact determinant by fraction-free elimination."""
    a = [list(r) for r in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            p = next((r for r in range(k + 1, n) if a[r][k]), None)
            if p is None:
                return 0
            a[k], a[p] = a[p], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def gf2_nullity(matrix):
    """Dimension of the kernel of an integer matrix reduced mod 2."""
    rows = [sum((x & 1) << j for j, x in enumerate(r)) for r in matrix]
    rank = 0
    for bit in range(len(matrix)):
        piv = next((i for i in range(rank, len(rows)) if rows[i] >> bit & 1),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] >> bit & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return len(matrix) - rank


def form_key(matrix):
    """Invariant of a symmetric matrix under simultaneous row/column
    permutation: three rounds of colour refinement plus the determinant.
    Equal matrices in any vertex order give equal keys, so distinct keys
    guarantee distinct Goeritz matrices."""
    n = len(matrix)
    colour = [matrix[i][i] for i in range(n)]
    for _ in range(3):
        sig = [(colour[i], tuple(sorted((matrix[i][j], colour[j])
                                        for j in range(n)
                                        if j != i and matrix[i][j])))
               for i in range(n)]
        names = {s: k for k, s in enumerate(sorted(set(sig)))}
        colour = [names[s] for s in sig]
    return (det(matrix), tuple(sorted(sig)))


def medial_pd(g, marked=0):
    """PD code of the alternating diagram whose white graph is g.

    One crossing per edge and one arc per rotation gap; gap i at v lies
    just before rot[v][i].  Tuples start at the incoming under-strand,
    which needs an orientation of each link component.
    """
    arc = {}
    for v in range(g.n):
        for i in range(len(g.rot[v])):
            arc[(v, i)] = len(arc) + 1
    where = g.positions()

    def gaps(d):
        v, i = where[d]
        return arc[(v, (i + 1) % len(g.rot[v]))], arc[(v, i)]

    tuples = []
    for e in range(len(g.edges)):
        after_u, before_u = gaps((e, 0))
        after_v, before_v = gaps((e, 1))
        tuples.append((after_u, before_u, after_v, before_v))
    ends = {}
    for c, t in enumerate(tuples):
        for s, a in enumerate(t):
            ends.setdefault(a, []).append((c, s))
    head = {}
    for a0 in sorted(ends):
        if a0 in head:
            continue
        a, tail = a0, ends[a0][0]
        while a not in head:
            e1, e2 = ends[a]
            head[a] = e2 if e1 == tail else e1
            c, s = head[a]
            tail = (c, (s + 2) % 4)  # straight through the crossing
            a = tuples[c][tail[1]]
    pd = []
    for c, t in enumerate(tuples):
        s0 = 0 if head[t[0]] == (c, 0) else 2
        pd.append([t[(s0 + k) % 4] for k in range(4)])
    return {"pd": pd, "marked_arc": arc[(marked, 0)]}


def _op(workload, index, seed_tag, argv, doc, params, **expect):
    return {
        "id": "%s#%d" % (workload, index),
        "seed": seed_tag,
        "argv": argv,
        "doc": None if doc is None else json.dumps(doc, sort_keys=True),
        "params": params,
        "expect": expect,
    }


def _det_graph(rng, m, target, parity, used, tol=0.15, tries=300):
    """Bridgeless plane multigraph on m+1 vertices with |det| near target.

    Chords are added one at a time until |det| reaches the window.  The
    bridges left at each step are doubled, which can overshoot while
    bridges remain, so only an overshoot without bridges (or with many
    chords) restarts from a fresh tree.  Returns None when the wanted
    parity is not found within the given number of trees.
    """
    lo, hi = max(1, int(target * (1 - tol))), int(target * (1 + tol)) + 1
    for attempt in range(tries):
        # Tree bases double their bridges, which favours even |det|;
        # cycle bases start bridgeless and reach odd |det| as easily.
        g = (random_plane_tree if attempt % 2 else random_plane_cycle)(
            rng, m + 1)
        while True:
            b = bridgeless(g)
            gm = b.goeritz()
            d = abs(det(gm))
            if d > hi and (len(b.edges) == len(g.edges)
                           or len(g.edges) > 6 * m):
                break
            if lo <= d <= hi and d % 2 == parity and form_key(gm) not in used:
                used.add(form_key(gm))
                return b, gm, d
            add_random_chord(rng, g)
    return None


def _pick_det_graph(rng, ranks, j, target, parity, used):
    """The j-th input of a rung: rank ranks[j % len], the given parity.

    Small |det| at high rank, and odd |det| there, are scarce, so the
    other parity and then the rung's other ranks are tried in turn.
    """
    k = j % len(ranks)
    for m in ranks[k:] + ranks[:k]:
        for p in (parity, 1 - parity):
            found = _det_graph(rng, m, target, p, used)
            if found is not None:
                return m, found
    raise RuntimeError("no fresh graph with |det|~%d" % target)


def det_ladder(workload, seed, command, odd_share):
    """Ops over the |det| ladder; about odd_share of each rung is odd.

    Odd determinants are rare at small |det| and high rank, so an input
    whose preferred parity is not found takes the other one.
    """
    used = set()
    ops = []
    for target, count, ranks in DET_LADDER:
        for j in range(count):
            index = len(ops)
            parity = 1 if j < round(odd_share * count) else 0
            tag = "%s/%d/%d" % (workload, seed, index)
            m, (g, gm, d) = _pick_det_graph(random.Random(tag), ranks, j,
                                            target, parity, used)
            ops.append(_op(workload, index, tag, ["--json", command, "-"],
                           g.doc(), {"target_det": target, "m": m,
                                     "parity": parity},
                           m=m, det=d, crossings=len(g.edges), classes=d,
                           char_subgraphs=2 ** gf2_nullity(gm), kind="graph"))
    return ops


def _chorded_cycle(rng, n, chords):
    g = Plane(n)
    for v in range(n):
        # cycle 0-1-...-(n-1)-0, drawn so each vertex has two darts
        g.add_edge(v, len(g.rot[v]), (v + 1) % n, 0)
    for _ in range(chords):
        add_random_chord(rng, g)
    # relabel so that the seeded vertex becomes the marked vertex 0
    shift = rng.randrange(n)
    h = Plane(n)
    h.edges = [((u - shift) % n, (v - shift) % n) for u, v in g.edges]
    h.rot = [g.rot[(v + shift) % n] for v in range(n)]
    return h


# Diagram workload, besides the table knots.  Low-rank medials of random
# plane graphs keep ~120 ops in a cycle; the chorded cycles of rank 6-11
# carry the rank axis.  The plain cycle C_{m+1} has |det| = m+1 and each
# chord roughly triples it.
PD_LOW = (
    # (target |det|, inputs per cycle, ranks cycled through)
    (10, 20, (3, 4)),
    (16, 26, (3, 4, 5)),
    (25, 24, (3, 4, 5, 6)),
    (40, 12, (3, 4, 5, 6)),
)
PD_HIGH = (
    # (m, chords, |det| range, inputs per cycle); as with the det ladder,
    # a plateau of ~28 ops of similar cost holds the 90th percentile
    (6, 2, (30, 40), 6),
    (7, 1, (19, 23), 6),
    (7, 2, (26, 36), 8),
    (8, 1, (17, 23), 8),
    (9, 0, (10, 10), 1),
    (9, 1, (19, 25), 2),
    (10, 0, (11, 11), 1),
    (11, 0, (12, 12), 1),
)


def pd_ladder(workload, seed):
    ops = []
    used = set()

    def add(tag, g, params):
        gm = g.goeritz()
        d = abs(det(gm))
        ops.append(_op(workload, len(ops), tag, ["--json", "analyze", "-"],
                       medial_pd(g), params, m=g.n - 1, det=d,
                       crossings=len(g.edges), classes=d,
                       char_subgraphs=2 ** gf2_nullity(gm), kind="diagram"))

    rng = random.Random("%s/%d/marks" % (workload, seed))
    for name, (pd, d) in TABLE_KNOTS.items():
        mark = rng.choice(sorted({a for t in pd for a in t}))
        ops.append(_op(workload, len(ops), "%s/%d/%s" % (workload, seed, name),
                       ["--json", "analyze", "-"],
                       {"pd": pd, "marked_arc": mark},
                       {"table": name, "marked_arc": mark},
                       m=None, det=d, crossings=len(pd), classes=d,
                       kind="diagram"))
    for target, count, ranks in PD_LOW:
        for j in range(count):
            tag = "%s/%d/%d" % (workload, seed, len(ops))
            m, found = _pick_det_graph(random.Random(tag), ranks, j, target,
                                       j % 2, used)
            add(tag, found[0], {"target_det": target, "m": m})
    for m, chords, (lo, hi), count in PD_HIGH:
        for j in range(count):
            tag = "%s/%d/%d" % (workload, seed, len(ops))
            r = random.Random(tag)
            for _ in range(3000):
                g = _chorded_cycle(r, m + 1, chords)
                gm = g.goeritz()
                if lo <= abs(det(gm)) <= hi and form_key(gm) not in used:
                    break
            else:
                raise RuntimeError("no fresh chorded cycle for %s" % tag)
            used.add(form_key(g.goeritz()))
            add(tag, g, {"m": m, "chords": chords})
    return ops


def prufer_tree(rng, n):
    """Uniform labelled tree on 0..n-1 from a random Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [w for w in range(n) if degree[w] == 1]
    edges.append((u, v))
    return edges


def _tree_doc(n, edges, weights):
    return {"vertices": [{"id": "t%d" % v, "weight": w}
                         for v, w in enumerate(weights)],
            "edges": [["t%d" % u, "t%d" % v] for u, v in edges]}


def _tree_weights(rng, n, edges, excessive):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    if excessive:
        return [min(-2, -deg[v]) - rng.randrange(3) for v in range(n)]
    # mostly negative definite looking, with unit and zero weights so
    # that reduction moves apply
    return [rng.choice((-5, -4, -3, -3, -2, -2, -2, -1, -1, 0, 1))
            for _ in range(n)]


def _cactus(rng, n_target):
    """Connected graph whose blocks are single edges or cycles."""
    edges = []
    n = 1
    while n < n_target:
        at = rng.randrange(n)
        if rng.random() < 0.4:
            k = rng.randint(3, 6)
            ring = [at] + list(range(n, n + k - 1))
            n += k - 1
            edges += [(ring[i], ring[(i + 1) % k]) for i in range(k)]
        else:
            edges.append((at, n))
            n += 1
    return n, edges


# mk1 graphs: rank m -> GF(2) nullity k of the Goeritz form, so that a
# cycle holds the same number (2^k, 8-128) of characteristic sublinks
# whatever the seed.
MK1_NULLITY = {3: 3, 4: 4, 5: 4, 6: 5, 7: 6, 8: 7}


def _mk1_graph(rng, m, used):
    """White graph with connected reduced graph and 2^k characteristic
    sublinks, k = MK1_NULLITY[m]: some edges are doubled, which clears
    them mod 2."""
    for _ in range(20000):
        g = random_plane_tree(rng, m + 1)
        for _ in range(rng.randint(1, m)):
            add_random_chord(rng, g)
        for e in range(len(g.edges)):
            if rng.random() < 0.6:
                g.double(e)
        g = bridgeless(g)
        gm = g.goeritz()
        k = gf2_nullity(gm)
        if (k == MK1_NULLITY[m] and g.reduced_connected()
                and form_key(gm) not in used):
            used.add(form_key(gm))
            return g, gm, k
    raise RuntimeError("no mk1 graph with m=%d" % m)


# Mixed command workload, per cycle: (command, sizes cycled, count).
SLIDES_MIX = (
    ("mk1", (3, 4, 5, 6, 7, 8), 66),
    ("plumb-check", (40, 80, 120, 160), 120),
    ("plumb-reduce", (40, 80, 120, 160), 120),
    ("plumb-decide", (40, 80, 120, 160), 120),
    ("witness", (30, 60, 90, 120), 120),
    ("cf", None, 20),
    ("berge", None, 20),
)


def slides_mix(workload, seed):
    plan = []
    for command, sizes, count in SLIDES_MIX:
        for j in range(count):
            plan.append((command, sizes[j % len(sizes)] if sizes else None, j))
    ops = []
    used = set()
    for index, (command, size, j) in enumerate(plan):
        tag = "%s/%d/%d" % (workload, seed, index)
        rng = random.Random(tag)
        if command == "mk1":
            g, gm, k = _mk1_graph(rng, size, used)
            # the empty sublink is characteristic iff every degree is even
            sublinks = 2 ** k - all(gm[i][i] % 2 == 0 for i in range(size))
            op = _op(workload, index, tag, ["--json", "mk1", "-", "--all"],
                     g.doc(), {"m": size}, m=size, det=abs(det(gm)),
                     crossings=len(g.edges), sublinks=sublinks,
                     classes=sublinks, kind="mk1")
        elif command.startswith("plumb-"):
            action = command[len("plumb-"):]
            edges = prufer_tree(rng, size)
            weights = _tree_weights(rng, size, edges, action == "decide")
            op = _op(workload, index, tag, ["--json", "plumb", action, "-"],
                     _tree_doc(size, edges, weights),
                     {"vertices": size, "excessive": action == "decide"},
                     m=size, det=None, crossings=None, kind=command)
        elif command == "witness":
            n, edges = _cactus(rng, size)
            deg = [0] * n
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
            weights = [min(-2, -deg[v]) - rng.randrange(3) for v in range(n)]
            doc = {"vertices": [{"id": v, "weight": w}
                                for v, w in enumerate(weights)],
                   "edges": [[u, v] for u, v in edges]}
            op = _op(workload, index, tag, ["--json", "witness", "-"], doc,
                     {"vertices": n}, m=n, det=None, crossings=None,
                     hub_edges={str(v): -weights[v] - deg[v]
                                for v in range(n)},
                     kind="witness")
        elif command == "cf":
            q = rng.randrange(1, 10 ** 6)
            p = q + rng.randrange(1, 10 ** 6)
            while gcd(p, q) != 1:
                p += 1
            op = _op(workload, index, tag, ["--json", "cf", str(p), str(q)],
                     None, {"p": p, "q": q}, m=None, det=p, crossings=None,
                     kind="cf")
        else:
            i = rng.randrange(2, 10 ** 4)
            k = rng.randrange(2, 10 ** 4)
            while gcd(i, k) != 1:
                k += 1
            op = _op(workload, index, tag,
                     ["--json", "berge", str(i), str(k)], None,
                     {"i": i, "k": k}, m=None, det=None, crossings=None,
                     kind="berge")
        ops.append(op)
    return ops


def build(workload, seed):
    """The ops of one cycle of a workload, in the order they run."""
    if workload == "analyze-det":
        ops = det_ladder(workload, seed, "analyze", odd_share=0.5)
    elif workload == "obstruct-det":
        ops = det_ladder(workload, seed, "obstruct", odd_share=0.75)
    elif workload == "analyze-pd":
        ops = pd_ladder(workload, seed)
    elif workload == "slides-plumb":
        ops = slides_mix(workload, seed)
    else:
        raise ValueError("unknown workload %r" % workload)
    # Seeded interleave: any stretch of the cycle mixes every rung.
    random.Random("%s/%d/order" % (workload, seed)).shuffle(ops)
    return ops


def digest(ops):
    """sha256 over the argument lists and documents of a cycle."""
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps([op["argv"], op["doc"]]).encode())
    return h.hexdigest()
