"""Chainmail links and the graph-level handle-slide simulator.

A chainmail link is a framed link drawn from a weighted signed plane
multigraph: one unknot per vertex with the weight as framing, one clasp
per edge.  Handle slides are simulated on the linking matrix (every
slide is the unimodular congruence L -> E^T L E) while the plane graph
contracts alongside to drive the geometric pair-selection rule; the
slid-over component leaves the tracked sublink at each step.
"""
from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .errors import (CertificationFailure, DegenerateGraph, Disconnected,
                     InvalidEmbedding, MalformedInput, NonNegativeFraming,
                     NotCharacteristic)
from .exactalg import (_characteristic_supports, _edge_matrix, _parity_rows,
                       signature)
from .graphs import (Frozen, MarkedGraph, _reach, default_outer_dart,
                     euler_check, parse_graph_doc)


class ChainmailLink(Frozen):
    _fields = ("graph", "weights", "signs", "outer_dart", "from_tait")

    def __init__(self, graph, weights, signs, outer_dart, from_tait=False):
        if not graph.is_connected():
            raise Disconnected("chainmail graph must be connected")
        if graph.rotations is not None:
            euler_check(graph)
        # a loopless plane multigraph without a marked vertex; the framing
        # per vertex; +1 / -1 per edge; a dart on the unbounded face, or
        # None; whether the weights are minus the full white degrees
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "outer_dart", outer_dart)
        object.__setattr__(self, "from_tait", from_tait)

    @property
    def vertices(self):
        return self.graph.vertices

    @cached_property
    def linking_matrix(self):
        """Linking matrix as a tuple of rows, built once per link."""
        return _edge_matrix(self.vertices, self.weights, self.graph.edges,
                            self.signs)

    @cached_property
    def sigma(self):
        """Signature of the linking matrix, computed once per link."""
        pos, neg, _ = signature(self.linking_matrix)
        return pos - neg

    @cached_property
    def parity_rows(self):
        """Rows of the linking matrix mod 2 as ints: column j at bit j,
        the diagonal entry at bit n."""
        return _parity_rows(self.linking_matrix)

    @cached_property
    def plans(self):
        """Contraction plans of the connected pieces that mk1_run has
        slid, keyed by frozenset(piece): the (keep, drop) pairs in order
        and the surviving vertex."""
        return {}


class SlideStep(NamedTuple):
    slid: object                # component that slides (and survives)
    over: object                # component slid over (leaves the sublink)
    kind: str                   # "contract" or "merge"
    framing_after: int


class SlideLog(NamedTuple):
    vertex_order: tuple
    subset: tuple
    steps: tuple
    initial_matrix: tuple
    final_matrix: tuple
    final_vertex: object
    final_framing: int


class FillingStats(NamedTuple):
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
    """Sublink parity test: L w ~ diag(L) mod 2 for the indicator w.

    With w and the diagonal bit in one mask, row i holds exactly when
    its parity row has an even number of bits in the mask."""
    idx = link.graph.index
    mask = 1 << len(idx)
    for v in subset:
        if v not in idx:
            raise MalformedInput("unknown vertex %r" % (v,))
        mask |= 1 << idx[v]
    return not any((row & mask).bit_count() & 1 for row in link.parity_rows)


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

    def family(self, u, v):
        """The parallel edges between u and v, read off u's rotation."""
        return {e for e, _ in self.rot[u] if v in self.edges[e]}

    def adjacent_pairs(self):
        return sorted({(a, b) if str(a) <= str(b) else (b, a)
                       for a, b in self.edges.values()},
                      key=lambda p: (str(p[0]), str(p[1])))

    def _turn(self, dart):
        """Next dart on dart's face: cross its edge, turn once there."""
        e, end = dart
        rot = self.rot[self.edges[e][1 - end]]
        return rot[(rot.index((e, 1 - end)) + 1) % len(rot)]

    def encloses(self, u, v):
        """Whether the parallel family between u and v encloses another
        vertex, relative to the tracked outer face.

        The k family edges cut the sphere into k regions, each with one
        gap between consecutive family darts at u and one at v; since
        the graph is connected, a region holds a vertex exactly when one
        of its gaps holds another dart.  A u-gap is labelled by the
        family edge that closes it, a v-gap by the one that opens it:
        the face through the last corner of a u-gap runs along that edge
        into the first corner of its v-gap, so a label names a region.
        Two occupied regions always enclose one; with one, the rest are
        empty two-dart lenses and the family encloses exactly when the
        outer face is such a lens.  An untracked outer face counts as
        the largest face, which is never a lens.
        """
        family = self.family(u, v)
        if len(family) < 2:
            return False
        labels = set()
        for w, closing in ((u, True), (v, False)):
            rot = self.rot[w]
            start = next(i for i, d in enumerate(rot) if d[0] in family)
            last, held = rot[start][0], False
            for e, _ in rot[start + 1:] + rot[:start + 1]:
                if e not in family:
                    held = True
                    continue
                if held:
                    labels.add(e if closing else last)
                last, held = e, False
        if len(labels) != 1:
            return len(labels) > 1
        d = self.outer
        if d is None or d[0] not in family:
            return False
        nxt = self._turn(d)
        return nxt[0] in family and self._turn(nxt) == d

    def contract(self, keep, drop):
        """Contract the whole parallel family between keep and drop."""
        family = self.family(keep, drop)
        e0 = min(family)
        end = self.edges[e0].index(keep)
        rk, rd = self.rot[keep], self.rot[drop]
        i, j = rk.index((e0, end)), rd.index((e0, 1 - end))
        spliced = rk[:i] + rd[j + 1:] + rd[:j] + rk[i + 1:]
        # reattach drop's darts, then delete the family (now loops)
        for e, k in rd:
            ends = list(self.edges[e])
            ends[k] = keep
            self.edges[e] = tuple(ends)
        self.rot[keep] = [d for d in spliced if d[0] not in family]
        if self.outer is not None and self.outer[0] in family:
            self.outer = None
        for e in family:
            del self.edges[e]
        del self.rot[drop]


def _contraction_plan(link: ChainmailLink, piece, subset):
    """The (keep, drop) pairs that contract a connected piece of a
    sublink, in order, and the vertex that survives them.

    The plan depends only on the piece, the rotations and the outer
    dart, so it is built once per link and kept in link.plans; a piece
    with no slidable pair left is not kept, and raises naming subset.
    """
    key = frozenset(piece)
    plan = link.plans.get(key)
    if plan is not None:
        return plan
    if link.graph.rotations is None:
        raise InvalidEmbedding("handle-slide order needs a rotation system")
    # Regions of the piece's own sub-embedding only.
    work = _PlaneWork(link.graph, link.outer_dart, piece)
    pairs = []
    while len(work.rot) > 1:
        pair = next((p for p in work.adjacent_pairs()
                     if not work.encloses(*p)), None)
        if pair is None:
            raise CertificationFailure(
                "chainmail.mk1_run: no slidable pair left in sublink %s"
                % (list(subset),))
        pairs.append(pair)
        work.contract(*pair)
    plan = link.plans[key] = (tuple(pairs), next(iter(work.rot)))
    return plan


def mk1_run(link: ChainmailLink, subset) -> SlideLog:
    """Contract a sublink to a single component by handle slides.

    Within each connected component of the induced subgraph the pair to
    slide is the lexicographically first adjacent pair whose enclosed
    region contains no other component vertex; afterwards the component
    representatives are merged along a star.  The pairs of a component
    are planned once per link (_contraction_plan) and replayed here:
    each slide updates this sublink's copy of the linking matrix by the
    congruence with E = I + e_over e_slid^T and drops the slid-over
    component from the tracked sublink.  The empty sublink has nothing
    to slide: its log has no steps, no final vertex and framing 0.
    """
    subset = tuple(subset)
    idx = link.graph.index
    for v in subset:
        if v not in idx:
            raise MalformedInput("unknown vertex %r" % (v,))

    initial = link.linking_matrix
    if not subset:
        return SlideLog(link.vertices, subset, (), initial, initial, None, 0)
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
        pairs, survivor = _contraction_plan(link, comp, subset)
        for keep, drop in pairs:
            slide(keep, drop, "contract")
        reps.append(survivor)

    center = reps[0]
    for other in reps[1:]:
        slide(center, other, "merge")

    p = idx[center]
    final_framing = mat[p][p]
    rows = [idx[v] for v in inside]
    quad = sum(initial[i][j] for i in rows for j in rows)
    if final_framing != quad:
        raise CertificationFailure(
            "chainmail.mk1_run: final framing %d is not the sublink "
            "self-pairing %d (sublink %s)"
            % (final_framing, quad, list(subset)))
    if link.from_tait:
        cut = -quad
        direct = sum(1 for ((u, v, _), s) in zip(link.graph.edges, link.signs)
                     if (u in inside) != (v in inside))
        direct += sum(-link.weights[idx[v]] - link.graph.degree(v)
                      for v in inside)
        if cut != direct:
            raise CertificationFailure(
                "chainmail.mk1_run: minus the final framing is %d, the cut "
                "%d (sublink %s)" % (cut, direct, list(subset)))

    return SlideLog(
        vertex_order=link.vertices,
        subset=subset,
        steps=tuple(steps),
        initial_matrix=initial,
        final_matrix=tuple(tuple(row) for row in mat),
        final_vertex=center,
        final_framing=final_framing,
    )


def kaplan_filling(link: ChainmailLink, log: SlideLog) -> FillingStats:
    """Spin-filling statistics of the sublink log.subset after sliding,
    blowing up and down; log is mk1_run(link, log.subset).

    Starting from the chainmail filling, the tracked sublink is slid to
    one component K with framing -f, its framing is pushed to -1 by f-1
    meridian blow-ups and K is blown down: b2 = n + f - 2 and sigma
    gains f.  Everything is read off the slid matrix L' (K at index p):
    blowing K down adds L'[i][p]^2 to every other diagonal entry and
    each meridian ends at 1 + 1, so the surviving diagonal is even
    exactly when L'[i][i] + L'[i][p] is even for every i != p, which
    certifies the spin form.  The empty sublink keeps the chainmail
    filling.  A log of a link with another vertex order or linking
    matrix raises CertificationFailure.
    """
    subset = log.subset
    if (log.vertex_order != link.vertices
            or log.initial_matrix != link.linking_matrix):
        raise CertificationFailure(
            "chainmail.kaplan_filling: the slide log of sublink %s is of "
            "another link" % (list(subset),))
    if not is_characteristic(link, subset):
        raise NotCharacteristic("subset fails the linking parity test")
    n = len(link.vertices)
    if not subset:
        if any(row[i] % 2 for i, row in enumerate(link.linking_matrix)):
            raise CertificationFailure(
                "chainmail.kaplan_filling: the empty characteristic sublink "
                "needs an even diagonal")
        return FillingStats(b2=n, sigma=link.sigma, even_form=True, f=0)

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
    if not even:
        raise CertificationFailure(
            "chainmail.kaplan_filling: blown-down matrix is odd on the "
            "diagonal (sublink %s)" % (list(subset),))
    return FillingStats(b2=n + f - 2, sigma=link.sigma + f, even_form=even,
                        f=f)

