#!/usr/bin/env python3
"""End-to-end tour of the (-4,-2,-5,-2) chain example.

This alternating knot is non-special with odd determinant 55, yet every
obstruction implemented here stays inconclusive: the unique
characteristic subgraph has cut 2 < m = 4.  A spin negative definite
filling indeed exists, built from a lens-space surgery trace, and the
relevant arithmetic (continued fraction, surgery parameters) is printed
alongside the handle-slide log and the plumbing verdict.
"""
from spinfill.chainmail import build_chainmail, kaplan_filling, mk1_run
from spinfill.plumbing import berge_ipm, decide_plumbed, linear_tree, neg_cf
from spinfill.spinc import obstruction_report
from spinfill.graphs import MarkedGraph


def chain_white_graph():
    edges = []
    for k, (u, v) in enumerate([("a", "b"), ("b", "c"), ("c", "d")]):
        edges.append((u, v, k))
    for k in range(3):
        edges.append(("h", "a", 3 + k))
    for k in range(3):
        edges.append(("h", "c", 6 + k))
    edges.append(("h", "d", 9))
    rots = {
        "a": ((0, 0), (5, 1), (4, 1), (3, 1)),
        "b": ((0, 1), (1, 0)),
        "c": ((2, 0), (1, 1), (8, 1), (7, 1), (6, 1)),
        "d": ((2, 1), (9, 1)),
        "h": ((9, 0), (6, 0), (7, 0), (8, 0), (3, 0), (4, 0), (5, 0)),
    }
    return MarkedGraph(("a", "b", "c", "d", "h"), tuple(edges), marked="h",
                       rotations=tuple(rots[v] for v in ("a", "b", "c", "d", "h")))


def main():
    w = chain_white_graph()
    rep = obstruction_report(w)
    print("chain (-4,-2,-5,-2): m = %d, det = %d, special = %s"
          % (rep.m, rep.det, rep.special))
    print("  weak bound:   %s (min cut %s vs m = %d)"
          % (rep.cutbound.verdict, rep.cutbound.value, rep.m))
    print("  strong bound: %s (threshold 9m = %d)"
          % (rep.capbound.verdict, 9 * rep.m))
    for e in rep.cap_entries:
        print("  characteristic subgraph %s: cut %d, mu = %s, "
              "b2 range [%s, %s]" % (list(e.vertices), e.cut, e.mu,
                                     e.ue_lower, e.ue_upper))

    link = build_chainmail(w)
    for c in rep.subgraphs:
        if not c.vertices:
            continue
        log = mk1_run(link, c.vertices)
        stats = kaplan_filling(link, log)
        print("handle slides on %s: final framing %d, filling b2 = %d, "
              "sigma = %d, even form = %s"
              % (list(c.vertices), log.final_framing, stats.b2, stats.sigma,
                 stats.even_form))

    verdict = decide_plumbed(linear_tree([-4, -2, -5, -2]))
    print("plumbed spin filling: %s (%s)" % (verdict.status, verdict.reason))

    print("16/9 =", neg_cf(16, 9), "-> linear plumbing (-2,-5,-2)")
    plus, _ = berge_ipm(3, 5)
    print("surgery parameters from (i, k) = (3, 5):", plus)
    print("so the lens space piece is the trace of a 16-surgery, and")
    print("swapping it in gives a spin negative definite filling with b2 = 2.")


if __name__ == "__main__":
    main()
