"""Shared graph routines checked against brute force."""
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from spinfill.graphs import MarkedGraph
from spinfill.plumbing import accessible_witness

from conftest import refused
from oracles import bridges, gen_plane_multigraph, simple_cycles


def random_plane_graph(seed):
    rng = random.Random(seed)
    return gen_plane_multigraph(rng, rng.randint(2, 8), rng.randint(0, 8))


def random_connected_multigraph(seed):
    """Up to 7 vertices: a random tree plus random extra edges, parallel
    ones included."""
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    if n > 1:
        edges += [tuple(rng.sample(range(n), 2))
                  for _ in range(rng.randint(0, 6))]
    rng.shuffle(edges)
    return MarkedGraph(tuple(range(n)),
                       tuple((u, v, i) for i, (u, v) in enumerate(edges)))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_bridges_are_the_disconnecting_edges(seed):
    # the disconnecting edges are the edges on no cycle
    g = random_plane_graph(seed)
    on_cycle = set().union(*simple_cycles(g))
    assert bridges(g) == [i for i in range(len(g.edges)) if i not in on_cycle]


@given(st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_cactus_check_matches_cycle_enumeration(seed):
    # weights -(deg + 2) pass the excessive bound, so only the check that
    # no edge lies on two cycles can refuse the graph
    g = random_connected_multigraph(seed)
    weights = [-(g.degree(v) + 2) for v in g.vertices]
    cycles_per_edge = Counter(ei for c in simple_cycles(g) for ei in c)
    if any(k > 1 for k in cycles_per_edge.values()):
        with refused("^two cycles share more than one vertex$"):
            accessible_witness(g, weights)
    else:
        assert accessible_witness(g, weights).marked == "hub"
