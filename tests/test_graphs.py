"""Shared graph routines checked against brute force."""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from spinfill.graphs import MarkedGraph, _blocks

from oracles import bridges, gen_plane_multigraph


def random_plane_graph(seed):
    rng = random.Random(seed)
    return gen_plane_multigraph(rng, rng.randint(2, 8), rng.randint(0, 8))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_bridges_are_the_disconnecting_edges(seed):
    g = random_plane_graph(seed)
    disconnecting = [
        i for i in range(len(g.edges))
        if not MarkedGraph(g.vertices, g.edges[:i] + g.edges[i + 1:]).is_connected()
    ]
    assert sorted(bridges(g)) == disconnecting


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_blocks_partition_the_edges(seed):
    g = random_plane_graph(seed)
    blocks = _blocks(g)
    assert sum(len(b) for b in blocks) == len(g.edges)
    assert set().union(*blocks) == set(range(len(g.edges)))
