"""Spin-c classes, correction terms and spin-filling obstructions.

A spin-c class of the double branched cover is an orbit of
characteristic covectors (integer vectors matching the Goeritz diagonal
mod 2) under translation by twice the column lattice of the Goeritz
matrix.  The canonical keys of the orbits are the characteristic
points of a Hermite box, and one walk over that box (hermite_box) gives
each key's conjugate, its c1 class and its search target without
reducing any key; characteristic subgraphs encode the spin structures.
The correction term is the exact orbit maximum of (q(v) + m) / 4: on PD
input it is read off the Kauffman state covectors, which attain it
(Greene), and on graph input one batched nearest-first lattice search
per form (OrbitKernel.min_costs) finds it, one target per conjugate
pair.  The box size, the state/class bijection, the conjugation
pairing, c1 = 0 on the spin class of odd det and the equal d of
conjugate states are certified on every run.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product, repeat
from typing import NamedTuple

from . import _import_lazily
from .errors import CertificationFailure, NotATree, Singular, SpinfillError
from .exactalg import (GoeritzForm, _characteristic_supports, goeritz,
                       hnf_reduce)
from .graphs import MarkedGraph
from .plumbing import PlumbingTree

_diagram = _import_lazily("spinfill.diagram")   # run on diagram input only


class SpinCClass(NamedTuple):
    canonical_key: tuple         # Hermite-reduced characteristic covector
    d: Fraction                  # correction term
    c1_class: tuple | None       # coker class when det is odd
    state_index: int | None = None

    def is_spin(self):
        return self.c1_class is not None and not any(self.c1_class)


class CharSubgraph(NamedTuple):
    vertices: tuple
    cut: int


class BoundVerdict(NamedTuple):
    applicable: bool
    reason: str
    value: object = None
    obstructed: bool | None = None

    @property
    def verdict(self):
        if not self.applicable:
            return "not applicable"
        return "OBSTRUCTED" if self.obstructed else "inconclusive"


class CapEntry(NamedTuple):
    vertices: tuple
    cut: int
    obstructed: bool
    mu: Fraction | None = None          # filled when the reduced graph is a tree
    ue_lower: Fraction | None = None    # -8 mu / 9 <= b2
    ue_upper: Fraction | None = None    # b2 <= -8 mu


class ObstructionReport(NamedTuple):
    m: int
    det: int                           # |det G|, the number of spin-c classes
    matrix_det: int                    # det G itself
    special: bool
    b2_bound: int                      # b2 <= m, equality only when special
    spin_d: Fraction | None            # correction term of the spin class
    spin_b2_bound: int | None          # floor of the sharp bound 4 d(spin)
    cutbound: BoundVerdict             # min cut >= m obstruction
    capbound: BoundVerdict             # min cut >= 9 m obstruction
    cap_entries: tuple                 # per characteristic subgraph
    tree: object                       # reduced graph as PlumbingTree, or None
    classes: tuple                     # the spin-c table, as enumerate_spinc
    subgraphs: tuple                   # as characteristic_subgraphs
    graph: MarkedGraph                 # the marked white graph evaluated
    form: GoeritzForm                  # its Goeritz form

    @property
    def tree_reduced(self):
        return self.tree is not None


def canonical_key(g: GoeritzForm, covector):
    """Canonical orbit representative, reduced against twice the form."""
    return hnf_reduce(covector, g.hermite, 2)


class HermiteBox(NamedTuple):
    keys: list          # the class keys, in sorted (product) order
    strides: tuple      # key k has index sum(k[i] // 2 * strides[i])
    twin: list          # index of each key's conjugate key
    c1: list | None     # c1 class of each key, when det is odd
    partials: list      # search target of k[1:], by index % strides[0]


def hermite_box(g: GoeritzForm) -> HermiteBox:
    """One walk over the Hermite box of g, H upper triangular.

    The keys are the characteristic points of the box 0 <= k_i < 2 H[i][i],
    in product order.  The conjugate key of k is -k reduced modulo 2H and
    its c1 class is k reduced modulo H.  Row i of either reduction
    depends only on coordinates i..m-1, so the outer loop extends the
    coordinates from m-1 down to 1 and carries both partial reductions
    into the rows below.  Coordinate 0 then adds only the carry into row
    0: the conjugate coordinate is (carry - k_0) mod 2 H[0][0] and the c1
    coordinate (carry + k_0) mod H[0][0], O(1) a class.  The outer loop
    also sums the search target of k_1..k_m-1, to which a key adds
    k_0 target_columns[0].
    """
    h = g.hermite
    m = g.m
    parity = [x % 2 for x in g.diagonal]
    pivots = [h[i][i] for i in range(m)]
    keys = list(product(*(range(p, 2 * n, 2)
                          for p, n in zip(parity, pivots))))
    strides = [1] * m
    for i in range(m - 1, 0, -1):
        strides[i - 1] = strides[i] * pivots[i]
    columns = g.kernel.target_columns
    # (index, conjugate index, rows 0..i of -k and of k reduced by the
    # columns above i, c1 coordinates above i, target of those above i)
    outer = [(0, 0, [0] * m, [0] * m, (), [0] * m)]
    for i in range(m - 1, 0, -1):
        n, step, column = pivots[i], strides[i], columns[i]
        above = [h[k][i] for k in range(i)]
        grown = []
        for index, twin, neg, pos, c1, target in outer:
            for k in range(parity[i], 2 * n, 2):
                x = neg[i] - k
                qx = x // (2 * n)
                y = pos[i] + k
                qy = y // n
                grown.append((
                    index + k // 2 * step,
                    twin + (x - 2 * n * qx) // 2 * step,
                    [a - 2 * qx * b for a, b in zip(neg, above)],
                    [a - qy * b for a, b in zip(pos, above)],
                    (y - qy * n,) + c1,
                    [t + k * c for t, c in zip(target, column)]))
        outer = grown

    n, p, step = pivots[0], parity[0], strides[0]
    odd = math.prod(pivots) % 2 != 0
    twins = [0] * len(keys)
    c1s = [None] * len(keys) if odd else None
    partials = [None] * step
    for index, twin, neg, pos, c1, target in outer:
        # k_0 = p + 2t has conjugate coordinate p + 2 ((c - t) mod n):
        # c, c - 1, ..., 0, then n - 1, ..., c + 1 (neg[0] is even)
        c = (neg[0] // 2 - p) % n
        twins[index::step] = [*range(twin + c * step, twin - 1, -step),
                              *range(twin + (n - 1) * step, twin + c * step,
                                     -step)]
        if odd:
            c1s[index::step] = [((pos[0] + k) % n,) + c1
                                for k in range(p, 2 * n, 2)]
        partials[index] = target
    return HermiteBox(keys, tuple(strides), twins, c1s, partials)


def enumerate_spinc(g: GoeritzForm, covectors=None):
    """All spin-c classes in canonical order, with correction terms.

    The keys, one per class in sorted order, are the characteristic points
    of the Hermite box 0 <= r_i < 2 H[i][i], all reduced modulo 2G; their
    count is checked against the determinant of the form's OrbitKernel.
    One walk over the box (hermite_box) gives each key's index, the index
    of its conjugate key and, on odd det, its c1 class (the key modulo G).

    Conjugation [v] -> [-v] preserves d, since the orbit of -v is the
    negated orbit of v and q(-x) = q(x).  So the classes pair up by
    index, and the first key of each pair is its representative.  A
    self-conjugate key is a spin structure.  The pairing certifies
    itself: every conjugate index must be a class, conjugation must be
    an involution pairing each key exactly once, and the number of
    self-conjugate keys must be a power of two, exactly one when det is
    odd, and then it must be the one class with c1 = 0.

    Without covectors (graph input) the representatives' targets, built
    from the walk's partial targets, go to one batched nearest-first
    lattice search (OrbitKernel.min_costs), one target per conjugate
    pair.  covectors, when given (PD input), lists one characteristic
    covector per Kauffman state.  Every state covector attains the
    maximum of its orbit (Greene), so d is read off it as
    (q(v) + m) / 4 with no search.  Each state is reduced to its key
    (canonical_key), the states must biject onto the keys, and the
    states of a class and of its conjugate must give the same d.
    Either way d is an integer numerator over a denominator fixed by the
    form, and each distinct numerator becomes one Fraction, shared by
    the classes that have it.
    """
    kernel = g.kernel
    m = g.m
    det = (-1) ** m * kernel.det

    def failure(message):
        return CertificationFailure(
            "spinc.enumerate_spinc: %s (rank %d, det %d)" % (message, m, det))

    box = hermite_box(g)
    keys, twin = box.keys, box.twin
    n = len(keys)
    if n != abs(det):
        raise failure("found %d classes, expected %d" % (n, abs(det)))

    state = [None] * n
    if covectors is not None:
        # d = (q(v) + m) / 4 = (m det A - v^T adj(A) v) / (4 det A)
        numerator = [None] * n
        for si, vec in enumerate(covectors):
            key = canonical_key(g, vec)
            i = sum(k // 2 * s for k, s in zip(key, box.strides))
            if not 0 <= i < n or keys[i] != key or state[i] is not None:
                raise failure("states do not biject onto spin-c classes")
            state[i] = si
            numerator[i] = m * kernel.det - kernel.adj_norm(vec)
        if len(covectors) != n:
            raise failure("states do not biject onto spin-c classes")

    pair = [None] * n   # index of each key's conjugate pair
    reps = []           # the first index of each pair
    spin = []
    for i, j in enumerate(twin):
        if pair[i] is not None:
            continue
        if not 0 <= j < n:
            raise failure("conjugate index %d of class %r is not a class key"
                          % (j, keys[i]))
        if pair[j] is not None:
            raise failure("conjugation pairs class %r twice" % (keys[j],))
        if twin[j] != i:
            raise failure("conjugation is not an involution at class %r"
                          % (keys[i],))
        if j == i:
            spin.append(i)
        elif covectors is not None and numerator[j] != numerator[i]:
            raise failure(
                "states %d and %d of conjugate classes give different d"
                % (state[i], state[j]))
        pair[i] = pair[j] = len(reps)
        reps.append(i)
    count = len(spin)
    if count < 1 or count & (count - 1) or (det % 2 != 0 and count != 1):
        raise failure("found %d self-conjugate classes" % count)
    c1 = box.c1
    if det % 2 != 0:
        zero = (0,) * m
        if c1.count(zero) != 1 or c1[spin[0]] != zero:
            raise failure("self-conjugate class %r has c1 %r; c1 = 0 on %d "
                          "of %d classes"
                          % (keys[spin[0]], c1[spin[0]], c1.count(zero), n))

    if covectors is None:
        column, partials, step = (kernel.target_columns[0], box.partials,
                                  box.strides[0])
        targets = []
        for i in reps:
            k = keys[i][0]
            targets.append([t + k * c
                            for t, c in zip(partials[i % step], column)])
        md = m * kernel.denominator
        numerators = [md - 4 * best for best in kernel.min_costs(targets)]
        denominator = 4 * kernel.denominator
    else:
        numerators = [numerator[i] for i in reps]
        denominator = 4 * kernel.det
    fractions = {x: Fraction(x, denominator) for x in set(numerators)}
    d = [fractions[x] for x in numerators]

    # tuple.__new__ skips the Python-level __new__ of the named tuple
    return list(map(tuple.__new__, repeat(SpinCClass), zip(
        keys, map(d.__getitem__, pair),
        c1 if c1 is not None else repeat(None), state)))


def characteristic_subgraphs(w: MarkedGraph, g=None):
    """Induced subgraphs of the reduced graph with the parity property:
    every unmarked vertex sees its own full degree mod 2 in edges toward
    the subgraph (its own degree counted when it belongs).

    Solved as G y = diag(G) over GF(2); each solution is re-verified on
    the graph directly.  The count is a power of two, exactly one when
    the determinant is odd.  g, when given, is w's prebuilt Goeritz form.
    """
    if g is None:
        g = goeritz(w)
    out = []
    for support in _characteristic_supports(g.matrix, g.vertex_order):
        _verify_characteristic(w, support)
        out.append(CharSubgraph(support, cut_size(w, support)))
    return out


def _verify_characteristic(w: MarkedGraph, support):
    """Count, in one pass over the edges, the edges from each vertex
    into the support; every unmarked vertex must see an even number of
    them when it belongs, its degree's parity when it does not."""
    sset = set(support)
    toward = dict.fromkeys(w.vertices, 0)
    for u, v, _ in w.edges:
        if u in sset:
            toward[v] += 1
        if v in sset:
            toward[u] += 1
    degrees = w.degrees
    for v in w.vertices:
        if v == w.marked:
            continue
        if (toward[v] - (0 if v in sset else degrees[v])) % 2:
            raise CertificationFailure(
                "spinc._verify_characteristic: GF(2) solution %s fails the "
                "direct parity re-check at vertex %r" % (list(support), v))


def cut_size(w: MarkedGraph, vertices) -> int:
    """Edges of the full graph leaving the vertex set (marked outside)."""
    inside = set(vertices)
    return sum(1 for (u, v, _) in w.edges if (u in inside) != (v in inside))


def _spin_defect(g: GoeritzForm, sub: CharSubgraph) -> Fraction:
    """Neumann-Siebenmann mu = (signature - y^T G y) / 8 of the subgraph
    with indicator y, for a reduced graph that is a tree: its intersection
    matrix is G, certified negative definite by the OrbitKernel, so the
    signature is -m."""
    inside = set(sub.vertices)
    idx = [i for i, v in enumerate(g.vertex_order) if v in inside]
    mu = Fraction(-g.m - sum(g.matrix[i][j] for i in idx for j in idx), 8)
    if 8 * mu != sub.cut - g.m:
        raise CertificationFailure(
            "spinc._spin_defect: 8 mu = %s is not cut - m = %d (subgraph %s)"
            % (8 * mu, sub.cut - g.m, list(sub.vertices)))
    return mu


def obstruction_report(source) -> ObstructionReport:
    """Evaluate every filling obstruction for a diagram or marked graph.

    Diagram input is reduced to its white graph, and its Kauffman states
    are walked only after the Goeritz form and its kernel are built; the
    state covectors go to enumerate_spinc, which certifies the
    class/state bijection.  Each artifact of the input is built here
    once and carried by the report.
    """
    if isinstance(source, MarkedGraph):
        w = source
    else:
        w = _diagram.white_graph(source)
    if not w.is_connected():
        raise SpinfillError("white graph must be connected")
    g = goeritz(w)
    m = g.m
    try:
        kernel = g.kernel
    except Singular as exc:
        raise CertificationFailure(
            "spinc.obstruction_report: Goeritz form must be negative "
            "definite (rank %d, %s)" % (m, exc)) from None
    det = (-1) ** m * kernel.det
    special = all(d % 2 == 0 for d in w.degrees.values())
    odd = det % 2 != 0

    covectors = None if w is source else _diagram.kauffman_states(source, w)
    classes = enumerate_spinc(g, covectors=covectors)
    subs = characteristic_subgraphs(w, g)

    spin_d = None
    spin_bound = None
    if odd:
        # enumerate_spinc certified the one class with c1 = 0
        spin_d = next(c for c in classes if c.is_spin()).d
        spin_bound = math.floor(4 * spin_d)

    if special != any(not c.vertices for c in subs):
        raise CertificationFailure(
            "spinc.obstruction_report: the empty characteristic subgraph "
            "must occur exactly when the graph is special (rank %d, det %d)"
            % (m, det))
    nonempty = [c for c in subs if c.vertices]

    # The reduced graph, as a plumbing of its Goeritz form when a tree.
    try:
        tree = PlumbingTree(g.vertex_order, g.diagonal,
                            tuple((u, v) for (u, v, _) in w.edges
                                  if w.marked not in (u, v)))
    except NotATree:
        tree = None

    if special:
        cutbound = BoundVerdict(False, "link is special (empty subgraph is spin)")
        capbound = BoundVerdict(False, "link is special")
        entries = ()
    else:
        fmin = min(c.cut for c in nonempty)
        if odd:
            cutbound = BoundVerdict(True, "det odd and non-special",
                                    value=fmin, obstructed=fmin >= m)
        else:
            cutbound = BoundVerdict(False, "determinant is even")
        entries = []
        for c in nonempty:
            mu = lo = hi = None
            if tree is not None:
                mu = _spin_defect(g, c)
                lo = Fraction(-8) * mu / 9
                hi = Fraction(-8) * mu
            entries.append(CapEntry(c.vertices, c.cut, c.cut >= 9 * m,
                                    mu=mu, ue_lower=lo, ue_upper=hi))
        entries = tuple(entries)
        capbound = BoundVerdict(True, "non-special", value=fmin,
                                obstructed=fmin >= 9 * m)

    return ObstructionReport(
        m=m, det=abs(det), matrix_det=det, special=special, b2_bound=m,
        spin_d=spin_d, spin_b2_bound=spin_bound,
        cutbound=cutbound, capbound=capbound, cap_entries=entries,
        tree=tree,
        classes=tuple(classes), subgraphs=tuple(subs), graph=w, form=g,
    )
