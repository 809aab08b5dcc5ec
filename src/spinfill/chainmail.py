"""Chainmail links and the graph-level handle-slide simulator.

A chainmail link is a framed link drawn from a weighted signed plane
multigraph: one unknot per vertex with the weight as framing, one clasp
per edge.  Handle slides are simulated on the linking matrix (every
slide is the unimodular congruence L -> E^T L E) while the plane graph
contracts alongside to drive the geometric pair-selection rule; the
slid-over component leaves the tracked sublink at each step.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (DegenerateGraph, Disconnected, EmptyCharacteristicSet,
                     InvalidEmbedding, MalformedInput, NonNegativeFraming,
                     NotCharacteristic)
from .exactalg import _characteristic_supports, signature
from .graphs import (MarkedGraph, _dart_orbits, _face_successor, _reach,
                     default_outer_dart, euler_check, parse_graph_doc)


@dataclass(frozen=True, eq=False)
class ChainmailLink:
    graph: MarkedGraph          # loopless plane multigraph, no marked vertex
    weights: tuple              # framing per vertex
    signs: tuple                # +1 / -1 per edge
    outer_dart: tuple | None    # dart on the unbounded face
    from_tait: bool = False     # weights are minus full white degrees

    def __post_init__(self):
        if not self.graph.is_connected():
            raise Disconnected("chainmail graph must be connected")
        if self.graph.rotations is not None:
            euler_check(self.graph)

    @property
    def vertices(self):
        return self.graph.vertices

    @cached_property
    def linking_matrix(self):
        """Linking matrix as a tuple of rows, built once per link."""
        n = len(self.vertices)
        idx = self.graph.index
        mat = [[0] * n for _ in range(n)]
        for i, w in enumerate(self.weights):
            mat[i][i] = w
        for (u, v, _), sign in zip(self.graph.edges, self.signs):
            mat[idx[u]][idx[v]] += sign
            mat[idx[v]][idx[u]] += sign
        return tuple(tuple(row) for row in mat)

    @cached_property
    def sigma(self):
        """Signature of the linking matrix, computed once per link."""
        pos, neg, _ = signature(self.linking_matrix)
        return pos - neg


@dataclass(frozen=True)
class SlideStep:
    slid: object                # component that slides (and survives)
    over: object                # component slid over (leaves the sublink)
    kind: str                   # "contract" or "merge"
    framing_after: int


@dataclass(frozen=True)
class SlideLog:
    vertex_order: tuple
    subset: tuple
    steps: tuple
    initial_matrix: tuple
    final_matrix: tuple
    final_vertex: object
    final_framing: int


@dataclass(frozen=True)
class FillingStats:
    b2: int
    sigma: int
    even_form: bool
    f: int


def build_chainmail(source) -> ChainmailLink:
    """Build a chainmail link from a document or a marked white graph.

    A marked graph drops its marked vertex; framings are minus the full
    degrees and all clasps are positive, so the linking matrix is the
    Goeritz matrix.  Unmarked documents carry explicit weights, signs
    and rotations.
    """
    if isinstance(source, MarkedGraph):
        graph, weights, signs, outer = source, None, None, None
    else:
        graph, weights, signs, outer = parse_graph_doc(source)
    if graph.marked is None:
        if weights is None:
            raise MalformedInput("chainmail document needs vertex weights")
        if outer is None and graph.rotations is not None:
            outer = default_outer_dart(graph)
        return ChainmailLink(graph, weights, signs, outer)
    # Marked input carries white-graph semantics.
    reduced = graph.without_vertex(graph.marked)
    if not reduced.vertices:
        raise DegenerateGraph("no components after reduction")
    return ChainmailLink(reduced,
                         tuple(-graph.degree(v) for v in reduced.vertices),
                         tuple(1 for _ in reduced.edges),
                         _outer_from_deletion(graph, reduced), from_tait=True)


def _outer_from_deletion(full: MarkedGraph, reduced: MarkedGraph):
    """Outer face of the reduced embedding: the region that swallowed
    the deleted marked vertex.

    A surviving dart whose predecessor in the full rotation was deleted
    opens into that region, and the face sweeping a corner contains the
    dart the corner precedes.
    """
    if reduced.rotations is None or not reduced.edges:
        return None
    marked = full.marked
    kept = [i for i, (a, b, _) in enumerate(full.edges) if marked not in (a, b)]
    remap = {old: new for new, old in enumerate(kept)}
    for v in reduced.vertices:
        if marked not in full.neighbors[v]:
            continue
        full_rot = full.rotations[full.index[v]]
        n = len(full_rot)
        for i, dart in enumerate(full_rot):
            if dart[0] in remap:
                continue
            nxt = full_rot[(i + 1) % n]
            if nxt[0] in remap:
                return (remap[nxt[0]], nxt[1])
    return default_outer_dart(reduced)


def is_characteristic(link: ChainmailLink, subset) -> bool:
    """Sublink parity test: L w ~ diag(L) mod 2 for the indicator w."""
    cols = {link.graph.index[v] for v in subset}
    return all((sum(row[j] for j in cols) - row[i]) % 2 == 0
               for i, row in enumerate(link.linking_matrix))


def characteristic_subsets(link: ChainmailLink):
    """All characteristic sublinks, as sorted vertex tuples."""
    return _characteristic_supports(link.linking_matrix, link.vertices)


class _PlaneWork:
    """Mutable contracted copy of the sub-embedding induced on vertices."""

    def __init__(self, graph: MarkedGraph, outer_dart, vertices):
        self.edges = {i: (u, v) for i, (u, v, _) in enumerate(graph.edges)
                      if u in vertices and v in vertices}
        self.rot = {v: [d for d in graph.rotation_of(v) if d[0] in self.edges]
                    for v in graph.vertices if v in vertices}
        self.outer = (outer_dart if outer_dart and outer_dart[0] in self.edges
                      else None)

    def endpoint(self, dart):
        e, end = dart
        return self.edges[e][end]

    def parallel_edges(self, u, v):
        return [e for e, (a, b) in self.edges.items() if {a, b} == {u, v}]

    def adjacent_pairs(self, inside):
        pairs = set()
        for (a, b) in self.edges.values():
            if a in inside and b in inside and a != b:
                pairs.add((a, b) if str(a) <= str(b) else (b, a))
        return sorted(pairs, key=lambda p: (str(p[0]), str(p[1])))

    def faces(self):
        darts = ((e, end) for e in self.edges for end in (0, 1))
        return _dart_orbits(darts, _face_successor(self.rot.values()))

    def vertices_inside(self, u, v):
        """Vertices strictly inside the region enclosed by the parallel
        family between u and v, relative to the tracked outer face.

        Faces of the whole drawing are merged across every edge outside
        the family; the classes are the faces of the two-vertex
        subgraph.  Vertices not in the outer class are inside.
        """
        family = set(self.parallel_edges(u, v))
        if len(family) <= 1:
            return set()
        faces = self.faces()
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

        for e in self.edges:
            if e not in family:
                a, b = find(side[(e, 0)]), find(side[(e, 1)])
                if a != b:
                    parent[a] = b
        if self.outer is not None and self.outer in side:
            outer_class = find(side[self.outer])
        else:
            # largest face fallback
            big = max(range(len(faces)), key=lambda i: (len(faces[i]), -i))
            outer_class = find(big)
        inside = set()
        for w, rot in self.rot.items():
            if w in (u, v) or not rot:
                continue
            cls = find(side[rot[0]])
            if cls != outer_class:
                inside.add(w)
        return inside

    def contract(self, keep, drop):
        """Contract the whole parallel family between keep and drop."""
        family = self.parallel_edges(keep, drop)
        e0 = next(e for e in family
                  if (e, 0) in self.rot[keep] or (e, 1) in self.rot[keep])
        d_keep = (e0, 0) if self.endpoint((e0, 0)) == keep else (e0, 1)
        d_drop = (e0, 1 - d_keep[1])
        rk = self.rot[keep]
        rd = self.rot[drop]
        i = rk.index(d_keep)
        j = rd.index(d_drop)
        spliced = rk[:i] + rd[j + 1:] + rd[:j] + rk[i + 1:]
        # reattach drop's darts, then delete the family (now loops)
        for e, (a, b) in list(self.edges.items()):
            na = keep if a == drop else a
            nb = keep if b == drop else b
            self.edges[e] = (na, nb)
        spliced = [d for d in spliced if d[0] not in family]
        if self.outer is not None and self.outer[0] in family:
            self.outer = None
        for e in family:
            del self.edges[e]
        self.rot[keep] = spliced
        del self.rot[drop]


def mk1_run(link: ChainmailLink, subset) -> SlideLog:
    """Contract a sublink to a single component by handle slides.

    Within each connected component of the induced subgraph the pair to
    slide is the lexicographically first adjacent pair whose enclosed
    region contains no other component vertex; afterwards the component
    representatives are merged along a star.  Each slide updates the
    linking matrix by the congruence with E = I + e_over e_slid^T and
    drops the slid-over component from the tracked sublink.
    """
    subset = tuple(subset)
    if not subset:
        raise EmptyCharacteristicSet("nothing to slide")
    idx = link.graph.index
    for v in subset:
        if v not in idx:
            raise MalformedInput("unknown vertex %r" % (v,))

    initial = link.linking_matrix
    mat = [list(row) for row in initial]
    steps = []

    def slide(slid, over, kind):
        p, s = idx[slid], idx[over]
        n = len(mat)
        for j in range(n):
            mat[p][j] += mat[s][j]
        for i in range(n):
            mat[i][p] += mat[i][s]
        steps.append(SlideStep(slid=slid, over=over, kind=kind,
                               framing_after=mat[p][p]))

    # Connected components of the induced subgraph, processed in order
    # of their smallest member.
    inside = set(subset)
    neighbors = link.graph.neighbors
    components = []
    placed = set()
    for v in sorted(subset, key=str):
        if v not in placed:
            comp = _reach(v, lambda u: neighbors[u] & inside)
            placed |= comp
            components.append(comp)

    reps = []
    for comp in components:
        if len(comp) == 1:
            reps.append(next(iter(comp)))
            continue
        if link.graph.rotations is None:
            raise InvalidEmbedding("handle-slide order needs a rotation system")
        # Face regions of the component's own sub-embedding only.
        work = _PlaneWork(link.graph, link.outer_dart, comp)
        active = set(comp)
        while len(active) > 1:
            pair = None
            for (a, b) in work.adjacent_pairs(active):
                if not work.vertices_inside(a, b):
                    pair = (a, b)
                    break
            assert pair is not None, "a slidable pair always exists"
            keep, drop = pair
            slide(keep, drop, "contract")
            work.contract(keep, drop)
            active.discard(drop)
        reps.append(next(iter(active)))

    center = reps[0]
    for other in reps[1:]:
        slide(center, other, "merge")

    p = idx[center]
    final_framing = mat[p][p]
    rows = [idx[v] for v in inside]
    quad = sum(initial[i][j] for i in rows for j in rows)
    assert final_framing == quad, \
        "slides must accumulate the sublink self-pairing"
    if link.from_tait:
        cut = -quad
        direct = sum(1 for ((u, v, _), s) in zip(link.graph.edges, link.signs)
                     if (u in inside) != (v in inside))
        direct += sum(-link.weights[idx[v]] - link.graph.degree(v)
                      for v in inside)
        assert cut == direct, "final framing must equal minus the cut"

    return SlideLog(
        vertex_order=link.vertices,
        subset=subset,
        steps=tuple(steps),
        initial_matrix=initial,
        final_matrix=tuple(tuple(row) for row in mat),
        final_vertex=center,
        final_framing=final_framing,
    )


def kaplan_filling(link: ChainmailLink, subset, log=None) -> FillingStats:
    """Spin-filling statistics after sliding, blowing up and down.

    Starting from the chainmail filling, the tracked sublink is slid to
    one component K with framing -f, its framing is pushed to -1 by f-1
    meridian blow-ups and K is blown down: b2 = n + f - 2 and sigma
    gains f.  Everything is read off the slid matrix L' (K at index p):
    blowing K down adds L'[i][p]^2 to every other diagonal entry and
    each meridian ends at 1 + 1, so the surviving diagonal is even
    exactly when L'[i][i] + L'[i][p] is even for every i != p, which
    certifies the spin form.  log, when given, is mk1_run(link, subset),
    so the slides are not run twice.
    """
    subset = tuple(subset)
    if not is_characteristic(link, subset):
        raise NotCharacteristic("subset fails the linking parity test")
    n = len(link.vertices)
    if not subset:
        assert all(row[i] % 2 == 0
                   for i, row in enumerate(link.linking_matrix)), \
            "empty characteristic sublink needs an even diagonal"
        return FillingStats(b2=n, sigma=link.sigma, even_form=True, f=0)

    if log is None:
        log = mk1_run(link, subset)
    mat = log.final_matrix
    p = link.graph.index[log.final_vertex]
    framing = mat[p][p]
    if framing >= 0:
        raise NonNegativeFraming(
            "sublink %s slides to framing %d; the Kaplan filling needs a "
            "negative framing" % (list(subset), framing))
    f = -framing
    even = all((row[i] + row[p]) % 2 == 0
               for i, row in enumerate(mat) if i != p)
    assert even, "blown-down matrix must be even on the diagonal"
    return FillingStats(b2=n + f - 2, sigma=link.sigma + f, even_form=even,
                        f=f)

