"""Shared fixtures: validated diagrams, graph builders, slow oracles."""
from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from itertools import product

import pytest

# Acceptance tests append their PASS lines here; echoed after the run
# so they show even when output capture is on.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from spinfill.chainmail import build_chainmail
from spinfill.diagram import parse_pd, white_graph
from spinfill.errors import SpinfillError
from spinfill.graphs import MarkedGraph, graph_to_doc
from spinfill.spinc import canonical_key

from oracles import (black_graph, diagram_from_plane_graph,
                     gen_plane_multigraph, quadform_q)

# Alternating table diagrams (PD convention: counterclockwise from the
# incoming under-strand).  Verified against their known determinants.
PD_CODES = {
    "trefoil": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]],
    "trefoil_mirror": [[4, 2, 5, 1], [6, 4, 1, 3], [2, 6, 3, 5]],
    "figure_eight": [[4, 2, 5, 1], [8, 6, 1, 5], [6, 3, 7, 4], [2, 7, 3, 8]],
    "hopf": [[4, 1, 3, 2], [2, 3, 1, 4]],
    "5_2": [[1, 4, 2, 5], [3, 8, 4, 9], [5, 10, 6, 1], [9, 6, 10, 7],
            [7, 2, 8, 3]],
    "6_1": [[1, 4, 2, 5], [7, 10, 8, 11], [3, 9, 4, 8], [9, 3, 10, 2],
            [5, 12, 6, 1], [11, 6, 12, 7]],
    "6_2": [[1, 4, 2, 5], [5, 10, 6, 11], [3, 9, 4, 8], [9, 3, 10, 2],
            [7, 12, 8, 1], [11, 6, 12, 7]],
    "6_3": [[4, 2, 5, 1], [8, 4, 9, 3], [12, 9, 1, 10], [10, 5, 11, 6],
            [6, 11, 7, 12], [2, 8, 3, 7]],
}

KNOWN_DET = {
    "trefoil": 3, "trefoil_mirror": 3, "figure_eight": 5, "hopf": 2,
    "5_2": 7, "6_1": 9, "6_2": 11, "6_3": 13,
}


def probe_a():
    """Probe A: a bridgeless plane multigraph of rank 6 and |det| 3796,
    whose medial diagram has 22 crossings and 3796 Kauffman states."""
    return gen_plane_multigraph(random.Random(716), 7, 16, bridgeless=True)


def banana_graph(k, marked=True):
    """Two vertices joined by k parallel edges, embedded."""
    edges = tuple((0, 1, i) for i in range(k))
    rot0 = tuple((i, 0) for i in range(k))
    rot1 = tuple((i, 1) for i in range(k - 1, -1, -1))
    return MarkedGraph((0, 1), edges, marked=0 if marked else None,
                       rotations=(rot0, rot1))


def cycle_graph(k, marked=True):
    edges = tuple((i, (i + 1) % k, i) for i in range(k))
    rots = []
    for v in range(k):
        rots.append((((v - 1) % k, 1), (v, 0)))
    return MarkedGraph(tuple(range(k)), edges, marked=0 if marked else None,
                       rotations=tuple(rots))


def special44_graph():
    """Hub plus two vertices of degree four; Goeritz [[-4,1],[1,-4]]."""
    edges = (("h", 1, 0), ("h", 1, 1), ("h", 1, 2),
             ("h", 2, 3), ("h", 2, 4), ("h", 2, 5), (1, 2, 6))
    rots = {
        "h": ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)),
        1: ((2, 1), (1, 1), (0, 1), (6, 0)),
        2: ((6, 1), (5, 1), (4, 1), (3, 1)),
    }
    return MarkedGraph(("h", 1, 2), edges, marked="h",
                       rotations=tuple(rots[v] for v in ("h", 1, 2)))


def path_hub_graph():
    """Path with weights (-4,-2,-5,-2) realized as a white graph."""
    edges = []
    for k, (u, v) in enumerate([("a", "b"), ("b", "c"), ("c", "d")]):
        edges.append((u, v, k))
    for k in range(3):
        edges.append(("h", "a", 3 + k))
    for k in range(3):
        edges.append(("h", "c", 6 + k))
    edges.append(("h", "d", 9))
    # Hub below the path; parallel families appear in opposite cyclic
    # orders at their two ends so every bigon closes up.
    rots = {
        "a": ((0, 0), (5, 1), (4, 1), (3, 1)),
        "b": ((0, 1), (1, 0)),
        "c": ((2, 0), (1, 1), (8, 1), (7, 1), (6, 1)),
        "d": ((2, 1), (9, 1)),
        "h": ((9, 0), (6, 0), (7, 0), (8, 0), (3, 0), (4, 0), (5, 0)),
    }
    return MarkedGraph(("a", "b", "c", "d", "h"), tuple(edges), marked="h",
                       rotations=tuple(rots[v] for v in ("a", "b", "c", "d", "h")))


def two33_graph():
    """Two vertices of degree three around a hub; Goeritz [[-3,1],[1,-3]]."""
    edges = (("h", "a", 0), ("h", "a", 1), ("a", "b", 2),
             ("h", "b", 3), ("h", "b", 4))
    rots = {
        "h": ((0, 0), (1, 0), (3, 0), (4, 0)),
        "a": ((1, 1), (0, 1), (2, 0)),
        "b": ((2, 1), (4, 1), (3, 1)),
    }
    return MarkedGraph(("h", "a", "b"), edges, marked="h",
                       rotations=tuple(rots[v] for v in ("h", "a", "b")))


def pendant_graph():
    """Hub h joined to a by two edges, and a pendant edge a-b.  The
    reduced graph is the tree a-b with weights (-3, -1), which is not
    excessive."""
    edges = (("h", "a", 0), ("h", "a", 1), ("a", "b", 2))
    rots = {
        "h": ((0, 0), (1, 0)),
        "a": ((1, 1), (0, 1), (2, 0)),
        "b": ((2, 1),),
    }
    return MarkedGraph(("h", "a", "b"), edges, marked="h",
                       rotations=tuple(rots[v] for v in ("h", "a", "b")))


def banana_path_doc(m):
    """Marked hub h joined to 1 by three edges and a path 1, ..., m of
    doubled edges.  Mod 2 the Goeritz form is diag(1, 0, ..., 0), so the
    characteristic sublinks are the 2^(m-1) sets that contain 1."""
    bundles = [("h", 1, 3)] + [(i, i + 1, 2) for i in range(1, m)]
    edges, rot = [], {v: [] for v in ["h"] + list(range(1, m + 1))}
    for u, v, k in bundles:
        ids = range(len(edges), len(edges) + k)
        edges += [(u, v, e) for e in ids]
        rot[u] += [(e, 0) for e in ids]
        rot[v] = [(e, 1) for e in reversed(ids)] + rot[v]
    return graph_to_doc(MarkedGraph(tuple(rot), tuple(edges), marked="h",
                                    rotations=tuple(map(tuple, rot.values()))))


def diagram_suite():
    """(name, parsed diagram) pairs: table codes plus generated medials."""
    out = []
    for name, pd in PD_CODES.items():
        out.append((name, parse_pd({"pd": pd})))
    for k in range(2, 8):
        out.append(("banana%d" % k,
                    parse_pd(diagram_from_plane_graph(banana_graph(k)))))
    for k in (3, 4, 5):
        out.append(("cycle%d" % k,
                    parse_pd(diagram_from_plane_graph(cycle_graph(k)))))
    out.append(("special44",
                parse_pd(diagram_from_plane_graph(special44_graph()))))
    out.append(("path_hub",
                parse_pd(diagram_from_plane_graph(path_hub_graph()))))
    rng = random.Random(20240)
    made = 0
    while made < 6:
        g = gen_plane_multigraph(rng, rng.randint(2, 5), rng.randint(1, 4),
                                 marked=True, bridgeless=True)
        if len(g.edges) > 8:
            continue
        out.append(("random%d" % made,
                    parse_pd(diagram_from_plane_graph(g))))
        made += 1
    return out


@pytest.fixture(scope="session")
def all_diagrams():
    return diagram_suite()


@contextmanager
def refused(match):
    """Expect a refusal that exits 3: a plain SpinfillError, neither
    MalformedInput, CertificationFailure nor another subclass, whose
    message matches the regular expression match."""
    with pytest.raises(SpinfillError, match=match) as info:
        yield info
    assert type(info.value) is SpinfillError


def chainmail_or_none(w):
    """The chainmail link of a marked graph, or None when deleting the
    marked vertex disconnects it; any other refusal is raised."""
    try:
        return build_chainmail(w)
    except SpinfillError as exc:
        if (type(exc) is SpinfillError
                and str(exc) == "chainmail graph must be connected"):
            return None
        raise


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn, ...) counts the calls of library functions.

    Imports copy bindings, so each function is patched wherever a
    spinfill module or one of its classes binds it (a method is counted
    through its class).  Returns a dict of counts by function name.
    """
    calls = {}

    def install(*fns):
        for fn in fns:
            calls[fn.__name__] = 0

            def counted(*args, _fn=fn, **kwargs):
                calls[_fn.__name__] += 1
                return _fn(*args, **kwargs)

            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] != "spinfill":
                    continue
                spaces = [mod] + [v for v in vars(mod).values()
                                  if isinstance(v, type)
                                  and v.__module__ == name]
                for space in spaces:
                    for attr, value in list(vars(space).items()):
                        if value is fn:
                            monkeypatch.setattr(space, attr, counted)
        return calls

    return install


def white_data(kd):
    """The white and black graphs of a diagram."""
    return white_graph(kd), black_graph(kd)


def brute_force_class_maxima(gform, bound=None):
    """Box-oracle maxima of q per class, for small forms only.

    Enumerates every characteristic vector in the window and groups by
    canonical key; independent of the lattice-enumeration code path.
    """
    m = gform.m
    if bound is None:
        bound = 2 * max(sum(abs(x) for x in row) for row in gform.matrix) + 1
    diag = gform.diagonal
    ranges = []
    for i in range(m):
        lo = -bound + ((diag[i] - (-bound)) % 2)
        ranges.append(range(lo, bound + 1, 2))
    best = {}
    for v in product(*ranges):
        key = canonical_key(gform, v)
        q = quadform_q(gform, v)
        if key not in best or q > best[key]:
            best[key] = q
    return best


def random_characteristic_subset(rng, w):
    """Random nonempty characteristic subgraph, or None."""
    from spinfill.spinc import characteristic_subgraphs
    subs = [c for c in characteristic_subgraphs(w) if c.vertices]
    if not subs:
        return None
    return subs[rng.randrange(len(subs))].vertices
