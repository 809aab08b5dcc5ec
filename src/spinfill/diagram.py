"""Alternating link diagrams from PD codes.

A crossing is a 4-tuple of arc ids listed counterclockwise starting at
the incoming under-strand, so slots 0/2 are the under-strand ends and
slots 1/3 the over-strand ends.  Corner s of a crossing is the quadrant
between slot s and slot s+1.  The checkerboard convention used
throughout colors corners 0 and 2 white and corners 1 and 3 black; on
an alternating diagram every region sweeps corners of one parity, so
the white graph is read straight off the traced regions.  The black
graph is the white graph of the mirror, which lists each crossing from
the next slot.

The regions of the diagram are recovered purely combinatorially by
tracing the faces of the rotation system implied by tuple order.  The
Kauffman states are walked once, straight to one covector per state on
the white graph.
"""
from __future__ import annotations

from .errors import (Disconnected, MalformedInput, NonPlanar,
                     NotAlternating, NotReduced)
from .graphs import (Frozen, MarkedGraph, _as_document, _dart_orbits,
                     _is_int, _reach)


class KnotDiagram(Frozen):
    _fields = ("crossings", "arcs", "regions", "corner_region", "marked_arc",
               "marked_regions")

    def __init__(self, crossings, arcs, regions, corner_region, marked_arc,
                 marked_regions):
        # 4-tuples of arc ids; the sorted arc ids; per region, a cyclic
        # tuple of (crossing, corner) tokens; corner_region[c][s] is the
        # region at corner s of crossing c; the marked arc and the two
        # regions flanking it
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "corner_region", corner_region)
        object.__setattr__(self, "marked_arc", marked_arc)
        object.__setattr__(self, "marked_regions", marked_regions)

    @property
    def n(self):
        return len(self.crossings)


def parse_pd(text) -> KnotDiagram:
    """Parse a PD document {"pd": [[a,b,c,d], ...], "marked_arc": k?}.

    A bare list of 4-tuples is accepted as shorthand.
    """
    doc = _as_document(text)
    if isinstance(doc, list):
        doc = {"pd": doc}
    if not isinstance(doc, dict) or "pd" not in doc:
        raise MalformedInput("document must contain a 'pd' entry")
    pd = doc["pd"]
    if not isinstance(pd, list) or not pd:
        raise MalformedInput("'pd' must be a non-empty list of crossings")
    crossings = []
    for t in pd:
        if not isinstance(t, (list, tuple)) or len(t) != 4:
            raise MalformedInput("crossing %r is not a 4-tuple" % (t,))
        if not all(_is_int(x) for x in t):
            raise MalformedInput("arc ids must be integers: %r" % (t,))
        crossings.append(tuple(t))
    crossings = tuple(crossings)
    n = len(crossings)

    ends = {}
    for c, tup in enumerate(crossings):
        for s, arc in enumerate(tup):
            ends.setdefault(arc, []).append((c, s))
    for arc, where in ends.items():
        if len(where) != 2:
            raise MalformedInput(
                "arc %r appears %d times, expected 2" % (arc, len(where)))
    arcs = tuple(sorted(ends))

    # Connectivity of the 4-valent projection; split inputs are refused.
    adj = {c: set() for c in range(n)}
    for (c1, _), (c2, _) in ends.values():
        adj[c1].add(c2)
        adj[c2].add(c1)
    if len(_reach(0, adj.__getitem__)) != n:
        raise Disconnected("split diagram: projection is disconnected")

    # Face tracing: from end (c, s) jump to the arc's other end and turn
    # counterclockwise.  Each orbit is a region, stored as the cyclic
    # sequence of corners it sweeps (the far ends of its darts); corner s
    # sits between slots s, s+1.
    other = {}
    for (d1, d2) in (tuple(v) for v in ends.values()):
        other[d1] = d2
        other[d2] = d1
    succ = {d: (c2, (s2 + 1) % 4) for d, (c2, s2) in other.items()}
    darts = ((c, s) for c in range(n) for s in range(4))
    regions = [tuple(other[d] for d in orbit)
               for orbit in _dart_orbits(darts, succ)]
    corner_region = [[None] * 4 for _ in range(n)]
    for r, corners in enumerate(regions):
        for (c, s) in corners:
            corner_region[c][s] = r
    if len(regions) != n + 2:
        raise NonPlanar(
            "face tracing gives %d regions, expected %d" % (len(regions), n + 2))

    for arc, ((c1, s1), (c2, s2)) in ((a, tuple(w)) for a, w in ends.items()):
        if (s1 - s2) % 2 == 0:
            raise NotAlternating("arc %r fails over/under alternation" % (arc,))

    # Reduced: opposite corners at a crossing lie in distinct regions.
    for c in range(n):
        if corner_region[c][0] == corner_region[c][2] or \
           corner_region[c][1] == corner_region[c][3]:
            raise NotReduced("crossing %d is nugatory" % c)

    marked_arc = doc.get("marked_arc", arcs[0])
    if not _is_int(marked_arc) or marked_arc not in ends:
        raise MalformedInput("marked_arc %r is not an arc id" % (marked_arc,))
    # The two regions flanking an arc are the faces through its ends;
    # the face through end d sweeps the corner at the opposite end.
    (c1, s1), (c2, s2) = ends[marked_arc]
    marked_regions = (corner_region[c2][s2], corner_region[c1][s1])

    return KnotDiagram(
        crossings=crossings,
        arcs=arcs,
        regions=tuple(regions),
        corner_region=tuple(tuple(r) for r in corner_region),
        marked_arc=marked_arc,
        marked_regions=marked_regions,
    )


def white_graph(diagram: KnotDiagram) -> MarkedGraph:
    """The white checkerboard graph, as an embedded multigraph.

    The white regions are those whose corners are even; parse_pd's
    alternation check keeps the parity constant along each region.  One
    edge per crossing joins its corners 0 and 2, the rotation at a
    region is its traced boundary, and the marked vertex is the white
    region flanking the marked arc.
    """
    regions, reg = diagram.regions, diagram.corner_region
    verts = tuple(r for r, corners in enumerate(regions)
                  if corners[0][1] % 2 == 0)
    return MarkedGraph(
        vertices=verts,
        edges=tuple((reg[c][0], reg[c][2], c) for c in range(diagram.n)),
        marked=next(r for r in diagram.marked_regions if r in verts),
        # the traced dart (c, s) sweeps corner s, edge end s // 2
        rotations=tuple(tuple((c, s // 2) for c, s in regions[r])
                        for r in verts),
    )


def kauffman_states(diagram: KnotDiagram, white: MarkedGraph):
    """The covector of every Kauffman state, in state order.

    A state is a bijection crossing -> incident unmarked region, found by
    backtracking over crossings in index order, candidate regions in
    ascending id order, so the output order is deterministic.  Choosing
    a region orients the white edge of its crossing toward the white
    corner on the same side of the over-strand; corners 0 and 3 sit on
    the incoming-under side, corners 1 and 2 on the other.  The walk
    keeps the signed degree of every region up to date and each leaf
    emits it at the unmarked white vertices, in graph order.

    A region still unused at its last crossing must be taken there: at
    crossing c the walk returns when two regions closing at c are
    unused, and tries only that region when one is.  This cuts only
    branches with no state below them, so the order is unchanged.
    """
    marked = diagram.marked_regions
    choices = []
    for reg in diagram.corner_region:
        choices.append(sorted(
            (r,) + ((reg[0], reg[2]) if s in (0, 3) else (reg[2], reg[0]))
            for s, r in enumerate(reg) if r not in marked))
    last = {r: c for c, options in enumerate(choices) for r, _, _ in options}
    # per crossing, the choices of the regions whose last crossing it is
    closing = [tuple(o for o in options if last[o[0]] == c)
               for c, options in enumerate(choices)]
    unmarked = [v for v in white.vertices if v != white.marked]
    degree = [0] * len(diagram.regions)
    used = [False] * len(diagram.regions)
    covectors = []
    n = diagram.n

    def walk(c):
        if c == n:
            covectors.append(tuple([degree[v] for v in unmarked]))
            return
        options = choices[c]
        for o in closing[c]:
            if not used[o[0]]:
                if options is not choices[c]:
                    return
                options = (o,)
        for r, head, tail in options:
            if not used[r]:
                used[r] = True
                degree[head] += 1
                degree[tail] -= 1
                walk(c + 1)
                degree[head] -= 1
                degree[tail] += 1
                used[r] = False

    walk(0)
    # walk refers to itself through its closure cell; unbinding the name
    # frees it now instead of at the next cyclic collection
    del walk
    return covectors

