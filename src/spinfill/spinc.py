"""Spin-c classes, correction terms and spin-filling obstructions.

A spin-c class of the double branched cover is an orbit of
characteristic covectors (integer vectors matching the Goeritz diagonal
mod 2) under translation by twice the column lattice of the Goeritz
matrix.  Orbits get canonical keys by Hermite reduction, and
characteristic subgraphs encode the spin structures.  The correction
term is the exact orbit maximum of (q(v) + m) / 4: on PD input it is
read off the Kauffman state covectors, which attain it (Greene), and on
graph input one batched nearest-first lattice search per form
(OrbitKernel.min_costs) finds it, one target per conjugate pair.  The
box size, the state/class bijection, the conjugation pairing and the
equal d of conjugate states are certified on every run.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import neg
from typing import NamedTuple

from .diagram import state_covectors
from .errors import CertificationFailure, Disconnected, NotATree, Singular
from .exactalg import (GoeritzForm, _characteristic_supports, goeritz,
                       hnf_reduce)
from .graphs import MarkedGraph
from .plumbing import PlumbingTree


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


def d_invariant(g: GoeritzForm, covector) -> Fraction:
    """Correction term: max of (q(v) + m) / 4 over the class orbit.

    Writing v = v0 + 2Gy turns the maximum of q(v) = v^T G^{-1} v over
    integer y into a closest vector problem for the positive form -G:
    the orbit maximum is -4 min_cost / denominator.  This is a one-key
    call of the batched search OrbitKernel.min_costs, which enumerate_spinc
    makes once per form; the value is a reduced Fraction, so it does not
    depend on the kernel's elimination order.
    """
    kernel = g.kernel
    (best,) = kernel.min_costs((covector,))
    return Fraction(g.m * kernel.denominator - 4 * best,
                    4 * kernel.denominator)


def canonical_key(g: GoeritzForm, covector):
    """Canonical orbit representative, reduced against twice the form."""
    return hnf_reduce(covector, g.hermite, 2)


def coker_class(g: GoeritzForm, covector):
    return hnf_reduce(covector, g.hermite)


def enumerate_spinc(g: GoeritzForm, covectors=None):
    """All spin-c classes in canonical order, with correction terms.

    The keys, one per class in sorted order, are the characteristic points
    of the Hermite box 0 <= r_i < 2 H[i][i], all reduced modulo 2G; their
    count is checked against the determinant of the form's OrbitKernel.

    Conjugation [v] -> [-v] preserves d, since the orbit of -v is the
    negated orbit of v and q(-x) = q(x).  So one walk over the sorted keys
    pairs each key not yet paired with its conjugate key, -key reduced
    modulo 2G, and keeps the first key of each pair as its representative.
    A self-conjugate key is a spin structure.  The pairing certifies
    itself: every conjugate must be a key, each key must be paired exactly
    once, and the number of self-conjugate keys must be a power of two,
    exactly one when det is odd.

    Without covectors (graph input) the representatives go to one batched
    nearest-first lattice search (OrbitKernel.min_costs), one target per
    conjugate pair.  covectors, when given (PD input), lists one
    characteristic covector per Kauffman state.  Every state covector
    attains the maximum of its orbit (Greene), so d is read off it as
    (q(v) + m) / 4 with no search.  The states must biject onto the keys,
    and the states of a class and of its conjugate must give the same d.
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

    h = g.hermite
    keys = list(product(*(range(x % 2, 2 * h[i][i], 2)
                          for i, x in enumerate(g.diagonal))))
    if len(keys) != abs(det):
        raise failure("found %d classes, expected %d" % (len(keys), abs(det)))
    box = set(keys)

    state = {}
    if covectors is not None:
        # d = (q(v) + m) / 4 = (m det A - v^T adj(A) v) / (4 det A)
        numerator = {}
        for si, vec in enumerate(covectors):
            key = canonical_key(g, vec)
            if key not in box or key in state:
                raise failure("states do not biject onto spin-c classes")
            state[key] = si
            numerator[key] = m * kernel.det - kernel.adj_norm(vec)
        if len(state) != len(keys):
            raise failure("states do not biject onto spin-c classes")

    pair = {}       # key -> index of its conjugate pair
    reps = []       # the first key of each pair
    spin = 0
    for key in keys:
        if key in pair:
            continue
        twin = hnf_reduce(map(neg, key), h, 2)
        if twin == key:
            spin += 1
        elif twin not in box:
            raise failure("conjugate %r of class %r is not a class key"
                          % (twin, key))
        elif twin in pair:
            raise failure("conjugation pairs class %r twice" % (twin,))
        elif covectors is not None and numerator[twin] != numerator[key]:
            raise failure(
                "states %d and %d of conjugate classes give different d"
                % (state[key], state[twin]))
        pair[key] = pair[twin] = len(reps)
        reps.append(key)
    if spin < 1 or spin & (spin - 1) or (det % 2 != 0 and spin != 1):
        raise failure("found %d self-conjugate classes" % spin)

    if covectors is None:
        md = m * kernel.denominator
        numerators = [md - 4 * best for best in kernel.min_costs(reps)]
        denominator = 4 * kernel.denominator
    else:
        numerators = [numerator[key] for key in reps]
        denominator = 4 * kernel.det
    fractions = {x: Fraction(x, denominator) for x in set(numerators)}
    d = [fractions[x] for x in numerators]

    odd = det % 2 != 0
    return [SpinCClass(key, d[pair[key]], coker_class(g, key) if odd else None,
                       state.get(key))
            for key in keys]


def spin_class(classes):
    """The unique class with vanishing coker class (odd determinant)."""
    hits = [c for c in classes if c.is_spin()]
    if len(hits) != 1:
        raise CertificationFailure(
            "expected a unique spin class, found %d" % len(hits))
    return hits[0]


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
    sset = set(support)
    for v in w.vertices:
        if v == w.marked:
            continue
        toward = sum(w.edges_between(v, u) for u in sset if u != v)
        e = toward + (w.degree(v) if v in sset else 0)
        if (e - w.degree(v)) % 2:
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

    Diagram input is reduced to its white graph with the state covectors
    attached, so the class/state bijection is certified along the way.
    Each artifact of the input is built here once and carried by the
    report.
    """
    if isinstance(source, MarkedGraph):
        w, covectors = source, None
    else:
        w, covectors = state_covectors(source)
    if not w.is_connected():
        raise Disconnected("white graph must be connected")
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

    classes = enumerate_spinc(g, covectors=covectors)
    subs = characteristic_subgraphs(w, g)

    spin_d = None
    spin_bound = None
    if odd:
        sc = spin_class(classes)
        spin_d = sc.d
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
