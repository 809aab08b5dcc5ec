"""Weighted plumbing trees: reduction moves, normal form, decisions.

Trees describe plumbings of disk bundles over spheres.  Edge signs are
immaterial for trees (a vertex sign flip removes them), so they are not
stored.  The reduction engine implements the tree instances of the
standard calculus moves: deleting an isolated unit-weight vertex,
blowing down a unit-weight vertex of degree at most two, and absorbing
a zero-weight vertex of degree two.
"""
from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

from .errors import (CertificationFailure, MalformedInput, NotATree,
                     SpinfillError)
from .graphs import (FrozenValue, MarkedGraph, _as_document, _check_id,
                     _check_int, _check_vertex_ids, _edge_list, _reach,
                     _vertex_ids)


class PlumbingTree(FrozenValue):
    """Two trees are equal when their vertices, weights and edges are."""
    _fields = ("vertices", "weights", "edges")

    def __init__(self, vertices, weights, edges):
        if len(weights) != len(vertices):
            raise MalformedInput("one weight per vertex required")
        super().__init__(vertices, weights, edges)  # edges: (u, v) pairs
        # vertex -> weight, and vertex -> neighbors in edge-list order
        object.__setattr__(self, "_weight", dict(zip(vertices, weights)))
        object.__setattr__(self, "_adj", _check_tree(vertices, edges))

    def weight(self, v):
        return self._weight[v]

    def degree(self, v):
        return len(self._adj[v])

    @property
    def empty(self):
        return not self.vertices


def _check_tree(vertices, edges):
    """Validate a tree; returns its adjacency, neighbors in edge order."""
    if len(set(vertices)) != len(vertices):
        raise MalformedInput("duplicate vertex ids")
    adj = {v: [] for v in vertices}
    try:
        for (u, v) in edges:
            adj[u].append(v)
            adj[v].append(u)
    except (KeyError, TypeError, ValueError):
        pass  # _tree_fault words the fault
    else:
        # n - 1 edges that reach all n vertices leave no room for a
        # loop or a parallel edge
        if not vertices or (
                len(edges) == len(vertices) - 1
                and len(_reach(vertices[0], adj.__getitem__)) == len(vertices)):
            return adj
    raise _tree_fault(vertices, edges)


def _tree_fault(vertices, edges):
    """The first fault of edges that do not make a tree on vertices."""
    vs = set(vertices)
    seen_pairs = set()
    for (u, v) in edges:
        if u not in vs or v not in vs:
            return NotATree("edge endpoint not in vertex set")
        if u == v:
            return NotATree("loop edge in tree")
        key = frozenset((u, v))
        if key in seen_pairs:
            return NotATree("parallel edges in tree")
        seen_pairs.add(key)
    if len(edges) != len(vertices) - 1:
        return NotATree("edge count must be vertex count minus one")
    return NotATree("tree must be connected")


def parse_tree_doc(text) -> PlumbingTree:
    """Parse {"vertices": [{"id", "weight"}], "edges": [[u, v], ...]}.

    Each field is checked in bulk; the per-item checks run only to word
    the first fault.
    """
    doc = _as_document(text)
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise MalformedInput("tree document needs a 'vertices' list")
    vertex_docs, vertices = _vertex_ids(doc)
    weights = tuple(v.get("weight") for v in vertex_docs)
    if not set(map(type, weights)) <= {int}:
        try:
            weights = tuple(_check_int(v["weight"], "weight")
                            for v in vertex_docs)
        except KeyError as exc:
            raise MalformedInput("bad tree document: %s" % exc) from exc
    edges = _edge_list(doc)
    if not (set(map(type, edges)) <= {list} and set(map(len, edges)) <= {2}
            or all(isinstance(e, (list, tuple)) and len(e) == 2
                   for e in edges)):
        raise MalformedInput("tree edges must be [u, v] pairs")
    edges = tuple(map(tuple, edges))
    _check_vertex_ids(vertices)
    if not set(map(type, chain.from_iterable(edges))) <= {int, str}:
        for edge in edges:
            for v in edge:
                _check_id(v)
    return PlumbingTree(vertices, weights, edges)


def linear_tree(weights):
    """Chain with the given weights, vertices a0 - a1 - ..."""
    vs = tuple("a%d" % i for i in range(len(weights)))
    return PlumbingTree(vs, tuple(int(w) for w in weights),
                        tuple((vs[i], vs[i + 1]) for i in range(len(vs) - 1)))


def is_excessive(tree: PlumbingTree) -> bool:
    """Every weight at most min(-2, -degree)."""
    return all(tree.weight(v) <= min(-2, -tree.degree(v))
               for v in tree.vertices)


class NormalFormReport(NamedTuple):
    n1_ok: bool
    n1_violations: tuple    # vertices where a reduction move applies
    n2_ok: bool
    n2_violations: tuple    # chain vertices with weight > -2
    n3_ok: bool
    n3_violations: tuple    # parents of twin -2 leaves outside the exception


def _move_kind(weight, degree):
    """The reduction move that applies at a vertex of this weight and
    degree, or None."""
    if weight in (1, -1):
        if degree == 0:
            return "delete-unit"
        if degree <= 2:
            return "blow-down"
    elif weight == 0 and degree == 2:
        return "absorb-zero"
    return None


def check_normal_form(tree: PlumbingTree) -> NormalFormReport:
    """Normal-form conditions for a weighted tree.

    A chain vertex is one of degree at most two; twin -2 leaves on a
    common parent are tolerated only when the whole component is a chain
    of weights at most -2 ending in that parent.
    """
    degree, weight = tree.degree, tree.weight
    n1_bad = tuple(v for v in tree.vertices
                   if _move_kind(weight(v), degree(v)))
    n2_bad = tuple(v for v in tree.vertices
                   if degree(v) <= 2 and weight(v) > -2)
    # The exceptional shape: all weights <= -2, and the parent is either
    # the middle of three vertices or the one branch vertex, of degree
    # three (the rest is then a chain that ends in it).
    all_le_m2 = all(w <= -2 for w in tree.weights)
    branches = [v for v in tree.vertices if degree(v) >= 3]
    n3_bad = []
    for p in tree.vertices:
        twin_leaves = [u for u in tree._adj[p]
                       if degree(u) == 1 and weight(u) == -2]
        if len(twin_leaves) < 2:
            continue
        exception = (len(twin_leaves) == 2 and all_le_m2
                     and (degree(p) == 2
                          or (degree(p) == 3 and branches == [p])))
        if not exception:
            n3_bad.append(p)
    return NormalFormReport(
        n1_ok=not n1_bad, n1_violations=n1_bad,
        n2_ok=not n2_bad, n2_violations=n2_bad,
        n3_ok=not n3_bad, n3_violations=tuple(n3_bad),
    )


def reduce_normal_form(tree: PlumbingTree):
    """Apply reduction moves until none applies.

    Moves are taken in vertex position order.  Every move removes at
    least one vertex, so termination is structural; a
    CertificationFailure guards the loop against bugs.

    Edges carry ids in the order of the edge list (an edge rewired by an
    absorption keeps its id, a new one gets the next id), so the output
    lists them as the move-by-move edge list would.  A heap holds the
    position of every vertex that may admit a move; entries are checked
    when popped.
    """
    import heapq  # here, so that the analyze path imports no more modules
    pos = {v: i for i, v in enumerate(tree.vertices)}
    weights = dict(tree._weight)
    edges = {i: frozenset(e) for i, e in enumerate(tree.edges)}
    incident = {v: set() for v in tree.vertices}
    for i, (u, v) in enumerate(tree.edges):
        incident[u].add(i)
        incident[v].add(i)
    next_id = len(edges)
    log = []

    def kind_at(v):
        return v in weights and _move_kind(weights[v], len(incident[v]))

    def neighbors(v):
        return [next(iter(edges[e] - {v})) for e in sorted(incident[v])]

    def drop_edge(e):
        for u in edges.pop(e):
            incident[u].discard(e)

    heap = [(pos[v], v) for v in tree.vertices if kind_at(v)]
    for _ in range(2 * len(tree.vertices) + 1):
        while heap and not kind_at(heap[0][1]):
            heapq.heappop(heap)
        if not heap:
            break
        v = heap[0][1]
        kind = kind_at(v)
        if kind == "delete-unit":
            touched = ()
            log.append((kind, v))
        elif kind == "blow-down":
            eps = weights[v]
            nbrs = neighbors(v)
            for u in nbrs:
                weights[u] -= eps
            for e in list(incident[v]):
                drop_edge(e)
            if len(nbrs) == 2:
                edges[next_id] = frozenset(nbrs)
                for u in nbrs:
                    incident[u].add(next_id)
                next_id += 1
            touched = nbrs
            log.append((kind, v, eps))
        else:
            u1, u2 = neighbors(v)
            keep, drop = sorted((u1, u2), key=str)
            # Merge drop into keep; in a tree the two neighbors are not
            # adjacent, so no parallel edge can arise.
            for e in list(incident[v]):
                drop_edge(e)
            for e in incident.pop(drop):
                edges[e] = frozenset((keep, next(iter(edges[e] - {drop}))))
                incident[keep].add(e)
            weights[keep] += weights.pop(drop)
            touched = (keep,)
            log.append((kind, v, keep, drop))
        del weights[v]
        del incident[v]
        for u in touched:
            if kind_at(u):
                heapq.heappush(heap, (pos[u], u))
    else:
        raise CertificationFailure(
            "plumbing.reduce_normal_form: reduction engine failed to "
            "terminate (%d vertices)" % len(tree.vertices))

    order = [v for v in tree.vertices if v in weights]
    out = PlumbingTree(tuple(order), tuple(weights[v] for v in order),
                       tuple(tuple(sorted(e, key=str))
                             for e in edges.values()))
    return out, tuple(log)


def det_tree(tree: PlumbingTree) -> int:
    """Determinant of the intersection matrix by leaf-to-root elimination.

    Rooted at the first vertex, each vertex v gets full(v), the
    determinant of its subtree, and cut(v), that of its subtree without
    v.  Expanding along v's row gives
    full(v) = w_v * prod full(c) - sum_c cut(c) * prod_{c' != c} full(c'),
    cut(v) = prod full(c), folded over the children with plain ints.
    """
    if not tree.vertices:
        return 1
    root = tree.vertices[0]
    order = [root]
    parent = {root: root}
    for v in order:
        for u in tree._adj[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    # prod full(c) and the sum, over the children folded in so far
    prod = dict.fromkeys(order, 1)
    total = dict.fromkeys(order, 0)
    for v in reversed(order[1:]):
        full = tree._weight[v] * prod[v] - total[v]
        p = parent[v]
        total[p] = total[p] * full + prod[p] * prod[v]
        prod[p] *= full
    return tree._weight[root] * prod[root] - total[root]


class PlumbedVerdict(NamedTuple):
    status: str          # "yes" / "no" / "hypotheses-not-met"
    reason: str
    det: int


def decide_plumbed(tree: PlumbingTree) -> PlumbedVerdict:
    """Existence of a simply connected spin negative definite plumbed
    filling whose boundary is the plumbing boundary.

    Requires an excessive tree with odd determinant: the normal form is
    then rigid, so a filling exists exactly when every weight is even
    (the plumbing itself is the witness).
    """
    if tree.empty:
        raise SpinfillError("empty tree")
    if not is_excessive(tree):
        raise SpinfillError("tree is not excessive")
    det = det_tree(tree)
    if det % 2 == 0:
        return PlumbedVerdict("hypotheses-not-met",
                              "determinant %d is even" % det, det)
    if all(w % 2 == 0 for w in tree.weights):
        return PlumbedVerdict(
            "yes", "all weights even: the plumbing itself is a spin "
            "negative definite filling", det)
    return PlumbedVerdict(
        "no", "normal-form rigidity forces the filling tree to equal this "
        "one, whose odd weights rule out an even form", det)


def neg_cf(p: int, q: int):
    """Negative continued fraction p/q = a1 - 1/(a2 - 1/(...)), a_i >= 2."""
    if p <= q or q < 1 or math.gcd(p, q) != 1:
        raise SpinfillError("need p > q >= 1 coprime, got %r/%r" % (p, q))
    out = []
    while q:
        a = -((-p) // q)  # ceil(p / q)
        out.append(a)
        p, q = q, a * q - p
    if min(out) < 2:
        raise CertificationFailure(
            "plumbing.neg_cf: entry below 2 in %s" % (out,))
    return out


def berge_ipm(i: int, k: int):
    """Surgery parameters (p, q) for both signs p = i k +- 1.

    q is -k^2 reduced into [0, p); entries with p < 2 are dropped.
    """
    if math.gcd(i, k) != 1:
        raise SpinfillError("need gcd(i, k) = 1")
    out = []
    for sign in (1, -1):
        p = i * k + sign
        if p < 2:
            out.append(None)
            continue
        out.append((p, (-k * k) % p))
    return tuple(out)


def accessible_witness(g: MarkedGraph, weights) -> MarkedGraph:
    """Attach an outer hub so the weighted graph becomes a white graph.

    Sufficient conditions checked: connected; negative excessive; any
    two distinct cycles share at most one vertex (every block is a
    single edge or a single cycle).  The hub receives |w(v)| - deg(v)
    edges to each vertex, which makes the Goeritz diagonal equal the
    weights; this is asserted.
    """
    hub = "hub"
    if hub in g.vertices:
        raise MalformedInput("hub id %r already in use" % (hub,))
    if not g.is_connected():
        raise SpinfillError("graph must be connected")
    wmap = dict(zip(g.vertices, weights))
    for v in g.vertices:
        if wmap[v] > min(-2, -g.degree(v)):
            raise SpinfillError(
                "vertex %r violates the excessive bound" % (v,))
    # Each edge off a BFS tree closes a cycle with the tree paths from its
    # ends up to where they meet.  These cycles span all others, so no
    # edge lies on two cycles exactly when no tree edge lies on two.
    incident = {v: [] for v in g.vertices}
    for ei, (u, v, _) in enumerate(g.edges):
        incident[u].append((v, ei))
        incident[v].append((u, ei))
    queue = list(g.vertices[:1])
    depth = dict.fromkeys(queue, 0)
    up = {}                     # vertex -> (parent, tree edge index)
    for u in queue:
        for v, ei in incident[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                up[v] = (u, ei)
                queue.append(v)
    tree = {ei for _, ei in up.values()}
    on_cycle = set()
    for ei, (u, v, _) in enumerate(g.edges):
        if ei in tree:
            continue
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            u, te = up[u]
            if te in on_cycle:
                raise SpinfillError(
                    "two cycles share more than one vertex")
            on_cycle.add(te)

    edges = [(u, v, lab) for (u, v, lab) in g.edges]
    next_label = len(edges)
    for v in g.vertices:
        for _ in range(-wmap[v] - g.degree(v)):
            edges.append((hub, v, next_label))
            next_label += 1
    out = MarkedGraph(tuple(g.vertices) + (hub,), tuple(edges), marked=hub)
    for v in g.vertices:
        if -out.degree(v) != wmap[v]:
            raise CertificationFailure(
                "plumbing.accessible_witness: Goeritz diagonal %d at vertex "
                "%r is not its weight %d" % (-out.degree(v), v, wmap[v]))
    return out
