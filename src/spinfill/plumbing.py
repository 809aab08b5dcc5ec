"""Weighted plumbing trees: reduction moves, normal form, decisions.

Trees describe plumbings of disk bundles over spheres.  Edge signs are
immaterial for trees (a vertex sign flip removes them), so they are not
stored.  The reduction engine implements the tree instances of the
standard calculus moves: deleting an isolated unit-weight vertex,
blowing down a unit-weight vertex of degree at most two, and absorbing
a zero-weight vertex of degree two.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DegenerateGraph, InvalidFraction, MalformedInput,
                     NotAccessibleByConstruction, NotATree, NotCoprime,
                     NotExcessive, NotReducible)
from .exactalg import det_exact
from .graphs import (MarkedGraph, _blocks, _check_id, _check_vertex_ids,
                     _reach)


@dataclass(frozen=True)
class PlumbingTree:
    vertices: tuple
    weights: tuple
    edges: tuple  # (u, v) pairs

    def __post_init__(self):
        if len(self.weights) != len(self.vertices):
            raise MalformedInput("one weight per vertex required")
        _check_tree(self.vertices, self.edges)

    def weight(self, v):
        return self.weights[self.vertices.index(v)]

    def degree(self, v):
        return sum(1 for (a, b) in self.edges if v in (a, b))

    def neighbors(self, v):
        out = []
        for (a, b) in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return out

    @property
    def empty(self):
        return not self.vertices


def _check_tree(vertices, edges):
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
        return
    if len(edges) != len(vertices) - 1:
        raise NotATree("edge count must be vertex count minus one")
    if len(_reach(vertices[0], adj.__getitem__)) != len(vertices):
        raise NotATree("tree must be connected")


def parse_tree_doc(text) -> PlumbingTree:
    """Parse {"vertices": [{"id", "weight"}], "edges": [[u, v], ...]}."""
    doc = text if isinstance(text, dict) else None
    if doc is None:
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, TypeError) as exc:
            raise MalformedInput("not a valid document: %s" % exc) from exc
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise MalformedInput("tree document needs a 'vertices' list")
    try:
        vertices = tuple(v["id"] for v in doc["vertices"])
        weights = tuple(int(v["weight"]) for v in doc["vertices"])
        edges = tuple((u, v) for (u, v) in doc.get("edges", ()))
    except (TypeError, KeyError, ValueError) as exc:
        raise MalformedInput("bad tree document: %s" % exc) from exc
    _check_vertex_ids(vertices)
    for edge in edges:
        for v in edge:
            _check_id(v)
    return PlumbingTree(vertices, weights, edges)


def linear_tree(weights, prefix="a"):
    """Chain with the given weights, vertices a0 - a1 - ..."""
    vs = tuple("%s%d" % (prefix, i) for i in range(len(weights)))
    return PlumbingTree(vs, tuple(int(w) for w in weights),
                        tuple((vs[i], vs[i + 1]) for i in range(len(vs) - 1)))


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


def is_excessive(tree: PlumbingTree) -> bool:
    """Every weight at most min(-2, -degree)."""
    return all(tree.weight(v) <= min(-2, -tree.degree(v))
               for v in tree.vertices)


@dataclass(frozen=True)
class NormalFormReport:
    n1_ok: bool
    n1_violations: tuple    # vertices where a reduction move applies
    n2_ok: bool
    n2_violations: tuple    # chain vertices with weight > -2
    n3_ok: bool
    n3_violations: tuple    # parents of twin -2 leaves outside the exception

    @property
    def ok(self):
        return self.n1_ok and self.n2_ok and self.n3_ok


def _applicable_moves(vertices, weights, degree):
    """(kind, vertex) pairs for every move that currently applies;
    weights maps each vertex to its weight, degree(v) is its degree."""
    moves = []
    for v in vertices:
        w = weights[v]
        deg = degree(v)
        if w in (1, -1) and deg == 0:
            moves.append(("delete-unit", v))
        elif w in (1, -1) and deg <= 2:
            moves.append(("blow-down", v))
        elif w == 0 and deg == 2:
            moves.append(("absorb-zero", v))
    return moves


def check_normal_form(tree: PlumbingTree) -> NormalFormReport:
    """Normal-form conditions for a weighted tree.

    A chain vertex is one of degree at most two; twin -2 leaves on a
    common parent are tolerated only when the whole component is a chain
    of weights at most -2 ending in that parent.
    """
    weights = dict(zip(tree.vertices, tree.weights))
    n1_bad = tuple(v for _, v in _applicable_moves(tree.vertices, weights,
                                                   tree.degree))
    n2_bad = tuple(v for v in tree.vertices
                   if tree.degree(v) <= 2 and tree.weight(v) > -2)
    n3_bad = []
    for p in tree.vertices:
        twin_leaves = [u for u in tree.neighbors(p)
                       if tree.degree(u) == 1 and tree.weight(u) == -2]
        if len(twin_leaves) < 2:
            continue
        if not _d_type_component(tree, p, twin_leaves):
            n3_bad.append(p)
    return NormalFormReport(
        n1_ok=not n1_bad, n1_violations=n1_bad,
        n2_ok=not n2_bad, n2_violations=n2_bad,
        n3_ok=not n3_bad, n3_violations=tuple(n3_bad),
    )


def _d_type_component(tree, parent, twin_leaves):
    """Component is a chain of weights <= -2 with exactly two -2 leaves
    hanging off one end (the allowed exceptional shape)."""
    if len(twin_leaves) != 2:
        return False
    comp = _reach(parent, tree.neighbors)
    rest = comp - set(twin_leaves[:2])
    # rest must be a path ending at parent, all weights <= -2
    if any(tree.weight(v) > -2 for v in rest):
        return False
    degs = {}
    for (u, v) in tree.edges:
        if u in rest and v in rest:
            degs[u] = degs.get(u, 0) + 1
            degs[v] = degs.get(v, 0) + 1
    for v in rest:
        degs.setdefault(v, 0)
    if len(rest) == 1:
        return True
    ones = [v for v, d in degs.items() if d == 1]
    twos = [v for v, d in degs.items() if d == 2]
    return len(ones) == 2 and len(ones) + len(twos) == len(rest) \
        and parent in ones


def reduce_normal_form(tree: PlumbingTree, rng=None):
    """Apply reduction moves until none applies.

    Deterministic first-move order unless an rng is supplied, in which
    case applicable moves are picked at random (used for confluence
    testing).  Every move removes at least one vertex, so termination is
    structural; NotReducible guards the loop against bugs.
    """
    verts = list(tree.vertices)
    weights = {v: w for v, w in zip(tree.vertices, tree.weights)}
    edges = [frozenset(e) for e in tree.edges]
    log = []

    def degree(v):
        return sum(1 for e in edges if v in e)

    def neighbors(v):
        out = []
        for e in edges:
            if v in e:
                (a, b) = tuple(e)
                out.append(b if a == v else a)
        return out

    for _ in range(2 * len(verts) + 1):
        moves = _applicable_moves(verts, weights, degree)
        if not moves:
            break
        kind, v = moves[0] if rng is None else moves[rng.randrange(len(moves))]
        if kind == "delete-unit":
            verts.remove(v)
            del weights[v]
            log.append((kind, v))
        elif kind == "blow-down":
            eps = weights[v]
            nbrs = neighbors(v)
            for u in nbrs:
                weights[u] -= eps
            edges = [e for e in edges if v not in e]
            if len(nbrs) == 2:
                edges.append(frozenset(nbrs))
            verts.remove(v)
            del weights[v]
            log.append((kind, v, eps))
        else:
            u1, u2 = neighbors(v)
            keep, drop = sorted((u1, u2), key=str)
            # Merge drop into keep; in a tree the two neighbors are not
            # adjacent, so no parallel edge can arise.
            edges = [e for e in edges if v not in e]
            edges = [
                frozenset((keep, next(iter(e - {drop})))) if drop in e else e
                for e in edges
            ]
            weights[keep] += weights[drop]
            verts.remove(v)
            verts.remove(drop)
            del weights[v]
            del weights[drop]
            log.append((kind, v, keep, drop))
    else:
        raise NotReducible("reduction engine failed to terminate")

    order = [v for v in tree.vertices if v in weights]
    out = PlumbingTree(tuple(order), tuple(weights[v] for v in order),
                       tuple(tuple(sorted(e, key=str)) for e in edges))
    return out, tuple(log)


def det_tree(tree: PlumbingTree) -> int:
    return det_exact(intersection_matrix(tree)) if tree.vertices else 1


@dataclass(frozen=True)
class PlumbedVerdict:
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
        raise DegenerateGraph("empty tree")
    if not is_excessive(tree):
        raise NotExcessive("tree is not excessive")
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
        raise InvalidFraction("need p > q >= 1 coprime, got %r/%r" % (p, q))
    out = []
    while q:
        a = -((-p) // q)  # ceil(p / q)
        out.append(a)
        p, q = q, a * q - p
    assert all(a >= 2 for a in out)
    return out


def cf_value(terms):
    """Evaluate a negative continued fraction back to a fraction."""
    val = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        val = a - 1 / val
    return val


def berge_ipm(i: int, k: int):
    """Surgery parameters (p, q) for both signs p = i k +- 1.

    q is -k^2 reduced into [0, p); entries with p < 2 are dropped.
    """
    if math.gcd(i, k) != 1:
        raise NotCoprime("need gcd(i, k) = 1")
    out = []
    for sign in (1, -1):
        p = i * k + sign
        if p < 2:
            out.append(None)
            continue
        out.append((p, (-k * k) % p))
    return tuple(out)


def accessible_witness(g: MarkedGraph, weights, hub="hub") -> MarkedGraph:
    """Attach an outer hub so the weighted graph becomes a white graph.

    Sufficient conditions checked: connected; negative excessive; any
    two distinct cycles share at most one vertex (every block is a
    single edge or a single cycle).  The hub receives |w(v)| - deg(v)
    edges to each vertex, which makes the Goeritz diagonal equal the
    weights; this is asserted.
    """
    if hub in g.vertices:
        raise MalformedInput("hub id %r already in use" % (hub,))
    if not g.is_connected():
        raise NotAccessibleByConstruction("graph must be connected")
    wmap = dict(zip(g.vertices, weights))
    for v in g.vertices:
        if wmap[v] > min(-2, -g.degree(v)):
            raise NotAccessibleByConstruction(
                "vertex %r violates the excessive bound" % (v,))
    for block in _blocks(g):
        verts = set()
        for ei in block:
            u, v, _ = g.edges[ei]
            verts.update((u, v))
        if len(block) != 1 and len(block) != len(verts):
            raise NotAccessibleByConstruction(
                "two cycles share more than one vertex")

    edges = [(u, v, lab) for (u, v, lab) in g.edges]
    next_label = len(edges)
    for v in g.vertices:
        for _ in range(-wmap[v] - g.degree(v)):
            edges.append((hub, v, next_label))
            next_label += 1
    out = MarkedGraph(tuple(g.vertices) + (hub,), tuple(edges), marked=hub)
    for v in g.vertices:
        assert -out.degree(v) == wmap[v], \
            "hub multiplicities must realize the weights on the diagonal"
    return out


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
