import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinfill.errors import MalformedInput, NotATree
from spinfill.exactalg import goeritz, signature
from spinfill.graphs import MarkedGraph
from spinfill.plumbing import (PlumbingTree, _check_tree, accessible_witness,
                               berge_ipm, check_normal_form, decide_plumbed,
                               det_tree, is_excessive, linear_tree, neg_cf,
                               parse_tree_doc, reduce_normal_form)
from spinfill.spinc import characteristic_subgraphs

from conftest import refused
from oracles import (canonical_form, cf_value, check_tree_per_edge,
                     det_exact, edge_multiplicity, intersection_matrix,
                     random_excessive_tree, random_tree, shuffled_tree)


@st.composite
def trees(draw, max_size=40, weights=st.integers(-6, 2)):
    """Weighted trees with shuffled vertex order and edge orientation."""
    n = draw(st.integers(0, max_size))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    edges = [(p, v) if draw(st.booleans()) else (v, p)
             for v, p in enumerate(parents, 1)]
    edges = draw(st.permutations(edges)) if edges else []
    vertices = draw(st.permutations(range(n))) if n else []
    return PlumbingTree(tuple(vertices),
                        tuple(draw(weights) for _ in range(n)), tuple(edges))


def scan_neighbors(tree, v):
    """Edge-scan oracle: neighbors of v in edge-list order."""
    return [b if a == v else a for (a, b) in tree.edges if v in (a, b)]


def d_type_oracle(tree, parent, twin_leaves):
    """The component of parent minus its twin leaves is a chain of
    weights <= -2 that ends in parent."""
    if len(twin_leaves) != 2:
        return False
    rest = set(tree.vertices) - set(twin_leaves)
    if any(tree.weight(v) > -2 for v in rest):
        return False
    degs = {v: sum(1 for u in scan_neighbors(tree, v) if u in rest)
            for v in rest}
    if len(rest) == 1:
        return True
    ones = [v for v, d in degs.items() if d == 1]
    return (len(ones) == 2 and parent in ones
            and all(d in (1, 2) for d in degs.values()))


@given(trees())
@example(PlumbingTree(("a", "b", "c"), (-2, -1, -2), (("a", "b"), ("b", "c"))))
@settings(max_examples=200, deadline=None)
def test_det_tree_matches_dense_determinant(tree):
    expected = det_exact(intersection_matrix(tree)) if tree.vertices else 1
    assert det_tree(tree) == expected


@given(trees())
@settings(max_examples=100, deadline=None)
def test_adjacency_matches_edge_scan(tree):
    for v, w in zip(tree.vertices, tree.weights):
        assert tree._adj[v] == scan_neighbors(tree, v)
        assert tree.degree(v) == len(scan_neighbors(tree, v))
        assert tree.weight(v) == w
    assert is_excessive(tree) == all(
        w <= min(-2, -len(scan_neighbors(tree, v)))
        for v, w in zip(tree.vertices, tree.weights))


@given(trees(max_size=12, weights=st.sampled_from((-2, -2, -2, -3, -4, 0))))
@settings(max_examples=200, deadline=None)
def test_n3_matches_chain_oracle(tree):
    bad = []
    for p in tree.vertices:
        twins = [u for u in scan_neighbors(tree, p)
                 if tree.degree(u) == 1 and tree.weight(u) == -2]
        if len(twins) >= 2 and not d_type_oracle(tree, p, twins):
            bad.append(p)
    assert check_normal_form(tree).n3_violations == tuple(bad)


@given(trees(max_size=14, weights=st.integers(-4, -1)), st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_reduce_shuffled_order_is_confluent(tree, seed):
    assume(signature(intersection_matrix(tree)) == (0, len(tree.vertices), 0))
    ref, _ = reduce_normal_form(tree)
    out, log = reduce_normal_form(shuffled_tree(random.Random(seed), tree))
    assert canonical_form(out) == canonical_form(ref)
    assert check_normal_form(out).n1_ok
    assert len(out.vertices) + sum(2 if mv[0] == "absorb-zero" else 1
                                   for mv in log) == len(tree.vertices)


def test_tree_validation():
    with pytest.raises(NotATree):
        PlumbingTree((0, 1, 2), (-2, -2, -2), ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(NotATree):
        PlumbingTree((0, 1, 2), (-2, -2, -2), ((0, 1),))
    with pytest.raises(NotATree):
        PlumbingTree((0, 1), (-2, -2), ((0, 1), (0, 1)))


def outcome(check, vertices, edges):
    try:
        return check(vertices, edges)
    except (MalformedInput, NotATree) as exc:
        return type(exc), str(exc)


@st.composite
def near_trees(draw):
    """A tree on up to six vertices with up to two edits: an edge added,
    dropped, doubled or given a random end (a loop or a stray)."""
    n = draw(st.integers(0, 6))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    end = st.integers(0, n)
    for edit in draw(st.lists(st.integers(0, 3), max_size=2)):
        if edit == 0:
            edges.append((draw(end), draw(end)))
        elif edges and edit == 1:
            edges.pop(draw(st.integers(0, len(edges) - 1)))
        elif edges and edit == 2:
            edges.append(edges[draw(st.integers(0, len(edges) - 1))][::-1])
        elif edges:
            k = draw(st.integers(0, len(edges) - 1))
            edges[k] = (edges[k][0], draw(end))
    edges = draw(st.permutations(edges)) if edges else []
    return tuple(draw(st.permutations(range(n)))), tuple(edges)


@given(near_trees())
@settings(max_examples=400, deadline=None)
def test_tree_check_matches_per_edge_oracle(doc):
    vertices, edges = doc
    assert (outcome(_check_tree, vertices, edges)
            == outcome(check_tree_per_edge, vertices, edges))


def test_excessive_examples():
    assert is_excessive(linear_tree([-4, -2, -5, -2]))
    assert is_excessive(linear_tree([-2]))
    star = PlumbingTree(("c", "x", "y", "z"), (-2, -2, -2, -2),
                        (("c", "x"), ("c", "y"), ("c", "z")))
    assert not is_excessive(star)


def test_normal_form_examples():
    rep = check_normal_form(linear_tree([-2, -5, -2]))
    assert rep.n1_ok and rep.n2_ok and rep.n3_ok
    rep = check_normal_form(linear_tree([-2, 0, -2]))
    assert not rep.n1_ok and not rep.n2_ok
    rep = check_normal_form(linear_tree([-1]))
    assert not rep.n1_ok


def test_normal_form_twin_leaves():
    # twin -2 leaves at the end of a chain: the allowed component shape
    t = PlumbingTree(("p", "l1", "l2"), (-3, -2, -2),
                     (("p", "l1"), ("p", "l2")))
    assert check_normal_form(t).n3_ok
    t2 = PlumbingTree(("a", "p", "l1", "l2"), (-3, -2, -2, -2),
                      (("a", "p"), ("p", "l1"), ("p", "l2")))
    assert check_normal_form(t2).n3_ok
    # parent strictly inside a chain: portion outside the exception
    t3 = PlumbingTree(("z1", "p", "z2", "l1", "l2"), (-2, -4, -2, -2, -2),
                      (("z1", "p"), ("p", "z2"), ("p", "l1"), ("p", "l2")))
    rep = check_normal_form(t3)
    assert not rep.n3_ok and rep.n3_violations == ("p",)
    # three -2 leaves on one parent: also outside the exception
    t4 = PlumbingTree(("p", "l1", "l2", "l3"), (-3, -2, -2, -2),
                      (("p", "l1"), ("p", "l2"), ("p", "l3")))
    assert not check_normal_form(t4).n3_ok


def test_twin_leaves_mean_even_characteristic_count():
    rng = random.Random(41)
    for _ in range(40):
        base = random_tree(rng, rng.randint(1, 5), weight_range=(-5, -2))
        verts = list(base.vertices) + ["p", "l1", "l2"]
        attach = rng.choice(base.vertices)
        edges = list(base.edges) + [(attach, "p"), ("p", "l1"), ("p", "l2")]
        weights = list(base.weights) + [rng.randint(-5, -2), -2, -2]
        tree = PlumbingTree(tuple(verts), tuple(weights), tuple(edges))
        # count characteristic subgraphs via the marked-graph encoding
        hub_edges = []
        lab = 0
        out_edges = []
        for (u, v) in tree.edges:
            out_edges.append((u, v, lab))
            lab += 1
        for v, w in zip(tree.vertices, tree.weights):
            for _ in range(-w - tree.degree(v)):
                out_edges.append(("hub", v, lab))
                lab += 1
        g = MarkedGraph(tuple(verts) + ("hub",), tuple(out_edges), marked="hub")
        count = len(characteristic_subgraphs(g))
        assert count % 2 == 0


def test_reduce_isolated_unit():
    t, log = reduce_normal_form(linear_tree([-1]))
    assert t.empty and log == (("delete-unit", "a0"),)
    t, log = reduce_normal_form(linear_tree([1]))
    assert t.empty


def test_reduce_blow_down_chain():
    # (-2,-1,-2) blows down to (-1,-1), then to a single 0 vertex;
    # the boundary is not a sphere (determinant 0 is preserved)
    start = linear_tree([-2, -1, -2])
    assert det_tree(start) == 0
    t, log = reduce_normal_form(start)
    assert len(t.vertices) == 1 and t.weights == (0,)
    assert [mv[0] for mv in log] == ["blow-down", "blow-down"]


def test_reduce_zero_chain_absorption():
    t, log = reduce_normal_form(linear_tree([-3, 0, -4]))
    assert t.weights == (-7,)
    assert log[0][0] == "absorb-zero"


def test_reduce_identity_on_normal():
    t = linear_tree([-2, -5, -2])
    out, log = reduce_normal_form(t)
    assert log == ()
    assert canonical_form(out) == canonical_form(t)


def test_reduce_preserves_det_up_to_sign():
    rng = random.Random(13)
    for _ in range(80):
        t = random_tree(rng, rng.randint(1, 7))
        before = abs(det_tree(t))
        out, _ = reduce_normal_form(t)
        assert abs(det_tree(out)) == before


def test_reduce_confluence_random_orders():
    rng = random.Random(99)
    made = 0
    while made < 40:
        t = random_tree(rng, rng.randint(1, 8))
        if signature(intersection_matrix(t)) != (0, len(t.vertices), 0):
            continue
        ref, _ = reduce_normal_form(t)
        for seed in range(3):
            out, _ = reduce_normal_form(shuffled_tree(random.Random(seed), t))
            assert canonical_form(out) == canonical_form(ref)
        made += 1


def test_even_weights_pass_normal_form():
    rng = random.Random(7)
    for _ in range(30):
        t = random_tree(rng, rng.randint(1, 8), weight_range=(-8, -2))
        weights = tuple(w - (w % 2) for w in t.weights)  # make even
        t = PlumbingTree(t.vertices, weights, t.edges)
        rep = check_normal_form(t)
        assert rep.n1_ok and rep.n2_ok and rep.n3_ok
        mat = intersection_matrix(t)
        assert all(mat[i][i] % 2 == 0 for i in range(len(mat)))


def test_decide_examples():
    assert decide_plumbed(linear_tree([-4, -2, -5, -2])).status == "no"
    v = decide_plumbed(linear_tree([-2, -2]))
    assert v.status == "yes" and v.det == 3
    star = PlumbingTree(("c", "x", "y", "z"), (-2, -2, -2, -2),
                        (("c", "x"), ("c", "y"), ("c", "z")))
    with refused("^tree is not excessive$"):
        decide_plumbed(star)
    even = decide_plumbed(linear_tree([-2, -2, -2]))
    assert even.status == "hypotheses-not-met"


def test_decide_matches_parity_and_witness_specialness():
    rng = random.Random(3)
    done = 0
    while done < 80:
        t = random_excessive_tree(rng, rng.randint(1, 7))
        if det_tree(t) % 2 == 0:
            continue
        verdict = decide_plumbed(t)
        parity = all(w % 2 == 0 for w in t.weights)
        assert (verdict.status == "yes") == parity
        # reconstruct a white graph from the tree: special iff yes
        bare = MarkedGraph(t.vertices,
                           tuple((u, v, i) for i, (u, v) in enumerate(t.edges)))
        aug = accessible_witness(bare, t.weights)
        special = all(d % 2 == 0 for d in aug.degrees.values())
        assert special == parity
        done += 1


def test_neg_cf_examples():
    assert neg_cf(16, 9) == [2, 5, 2]
    assert neg_cf(3, 1) == [3]
    assert neg_cf(5, 2) == [3, 2]
    with refused("^need p > q >= 1 coprime, got 9/16$"):
        neg_cf(9, 16)
    with refused("^need p > q >= 1 coprime, got 16/4$"):
        neg_cf(16, 4)


@given(st.integers(2, 400), st.integers(1, 399))
@settings(max_examples=150, deadline=None)
def test_neg_cf_round_trip(p, q):
    import math
    if q >= p or math.gcd(p, q) != 1:
        return
    terms = neg_cf(p, q)
    assert all(a >= 2 for a in terms)
    assert cf_value(terms) == Fraction(p, q)


def test_lens_space_det():
    for (p, q) in ((16, 9), (5, 2), (7, 3), (55, 34), (13, 5)):
        import math
        if math.gcd(p, q) != 1:
            continue
        terms = neg_cf(p, q)
        t = linear_tree([-a for a in terms])
        assert abs(det_tree(t)) == p
    assert abs(det_tree(linear_tree([-2, -5, -2]))) == 16


def test_berge_examples():
    plus, minus = berge_ipm(3, 5)
    assert plus == (16, 7)
    assert minus == (14, 3)
    assert berge_ipm(1, 1) == ((2, 1), None)
    with refused(r"^need gcd\(i, k\) = 1$"):
        berge_ipm(2, 4)


def test_witness_examples():
    tri = MarkedGraph((0, 1, 2), ((0, 1, 0), (1, 2, 1), (0, 2, 2)))
    aug = accessible_witness(tri, (-3, -3, -3))
    hub_edges = edge_multiplicity(aug)
    assert all(hub_edges[frozenset(("hub", v))] == 1 for v in (0, 1, 2))
    assert goeritz(aug).diagonal == (-3, -3, -3)

    path = MarkedGraph(("a", "b", "c", "d"),
                       (("a", "b", 0), ("b", "c", 1), ("c", "d", 2)))
    aug = accessible_witness(path, (-4, -2, -5, -2))
    hub_edges = edge_multiplicity(aug)
    assert [hub_edges[frozenset(("hub", v))]
            for v in path.vertices] == [3, 0, 3, 1]

    with refused("^vertex 'a' violates the excessive bound$"):
        accessible_witness(path, (-1, -2, -5, -2))
    theta = MarkedGraph((0, 1), ((0, 1, 0), (0, 1, 1), (0, 1, 2)))
    with refused("^two cycles share more than one vertex$"):
        accessible_witness(theta, (-4, -4))


def test_witness_two_cycles_one_vertex_ok():
    # two triangles sharing a single vertex: allowed
    g = MarkedGraph((0, 1, 2, 3, 4),
                    ((0, 1, 0), (1, 2, 1), (0, 2, 2),
                     (2, 3, 3), (3, 4, 4), (2, 4, 5)))
    aug = accessible_witness(g, (-2, -2, -4, -2, -2))
    assert goeritz(aug).diagonal == (-2, -2, -4, -2, -2)


def test_parse_tree_doc():
    doc = {"vertices": [{"id": "x", "weight": -2}, {"id": "y", "weight": -3}],
           "edges": [["x", "y"]]}
    t = parse_tree_doc(doc)
    assert t.weights == (-2, -3)
    assert canonical_form(t) == canonical_form(
        PlumbingTree(("y", "x"), (-3, -2), (("y", "x"),)))


def test_canonical_form_distinguishes_weights():
    a = linear_tree([-2, -3])
    b = linear_tree([-3, -2])
    c = linear_tree([-2, -2])
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(a) != canonical_form(c)
