"""Command line front end.

One executable with subcommands; input documents are JSON files, output
is a deterministic text report or, with --json, a machine readable
document.  Exit codes: 0 ok, 2 malformed input, 3 invalid topology or
failed preconditions, 4 internal assertion failure.
"""
from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from fractions import Fraction

from . import chainmail as _chainmail
from . import diagram as _diagram
from . import plumbing as _plumbing
from . import spinc as _spinc
from .errors import (CertificationFailure, EmptyCharacteristicSet,
                     MalformedInput, NotReducible, SpinfillError)
from .graphs import MarkedGraph, _as_document, graph_to_doc, parse_graph_doc


def _frac(x):
    if isinstance(x, Fraction):
        return str(x)
    return x


def _load(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInput("cannot read %s: %s" % (path, exc)) from exc


def _doc_kind(text):
    doc = _as_document(text)
    if isinstance(doc, list):
        doc = {"pd": doc}
    if isinstance(doc, dict) and "pd" in doc:
        return "diagram", doc
    if isinstance(doc, dict) and "vertices" in doc:
        return "graph", doc
    raise MalformedInput("document is neither a PD code nor a graph")


def _obstruction_dict(rep: _spinc.ObstructionReport):
    def verdict(bv):
        out = {"applicable": bv.applicable, "reason": bv.reason,
               "verdict": bv.verdict}
        if bv.value is not None:
            out["min_cut"] = bv.value
        return out

    entries = []
    for e in rep.cap_entries:
        entry = {"vertices": list(e.vertices), "cut": e.cut,
                 "verdict": "OBSTRUCTED" if e.obstructed else "inconclusive"}
        if e.mu is not None:
            entry["mu"] = _frac(e.mu)
            entry["ue_lower"] = _frac(e.ue_lower)
            entry["ue_upper"] = _frac(e.ue_upper)
        entries.append(entry)
    return {
        "m": rep.m,
        "det": rep.det,
        "special": rep.special,
        "b2_bound": rep.b2_bound,
        "b2_bound_note": "equality only for special links",
        "spin_d": _frac(rep.spin_d) if rep.spin_d is not None else None,
        "spin_b2_bound": rep.spin_b2_bound,
        "cutbound": verdict(rep.cutbound),
        "capbound": verdict(rep.capbound),
        "per_subgraph": entries,
        "tree_reduced": rep.tree_reduced,
    }


def _plumbing_section(tree):
    if tree is None:
        return {"applicable": False, "reason": "reduced graph is not a tree"}
    nf = _plumbing.check_normal_form(tree)
    out = {
        "applicable": True,
        "weights": {str(v): tree.weight(v) for v in tree.vertices},
        "normal_form": {"n1": nf.n1_ok, "n2": nf.n2_ok, "n3": nf.n3_ok},
    }
    try:
        verdict = _plumbing.decide_plumbed(tree)
        out["decision"] = {"status": verdict.status, "reason": verdict.reason,
                           "det": verdict.det}
    except SpinfillError as exc:
        out["decision"] = {"status": "error", "reason": str(exc)}
    return out


def _mk1_section(link, subsets):
    runs = []
    for vs in subsets:
        log = _chainmail.mk1_run(link, vs)
        stats = _chainmail.kaplan_filling(link, vs, log)
        runs.append({
            "subset": list(log.subset),
            "slides": [
                {"slid": s.slid, "over": s.over, "kind": s.kind,
                 "framing_after": s.framing_after}
                for s in log.steps
            ],
            "final_vertex": log.final_vertex,
            "final_framing": log.final_framing,
            "filling": {"b2": stats.b2, "sigma": stats.sigma,
                        "even_form": stats.even_form, "f": stats.f},
        })
    return runs


def _analyze(doc, kind, mark=None, with_mk1=False):
    report = {}
    if kind == "diagram":
        if mark is not None:
            try:
                doc = dict(doc, marked_arc=int(mark))
            except ValueError as exc:
                raise MalformedInput("marked arc %r is not an integer"
                                     % (mark,)) from exc
        kd = _diagram.parse_pd(doc)
        rep = _spinc.obstruction_report(kd)
        whites = len(rep.graph.vertices)
        report["input"] = {"pd": [list(t) for t in kd.crossings],
                           "marked_arc": kd.marked_arc}
        report["diagram"] = {
            "crossings": kd.n,
            "regions": len(kd.regions),
            "white_regions": whites,
            "black_regions": len(kd.regions) - whites,
            "marked_regions": list(kd.marked_regions),
            # the report certifies one state per spin-c class
            "states": len(rep.classes),
        }
    else:
        graph, weights, signs, outer = parse_graph_doc(doc)
        if mark is not None:
            marked = _coerce_vertex(mark, graph.vertices)
            graph = MarkedGraph(graph.vertices, graph.edges, marked=marked,
                                rotations=graph.rotations)
        if graph.marked is None:
            raise MalformedInput("graph input needs a marked vertex")
        report["input"] = graph_to_doc(graph)
        rep = _spinc.obstruction_report(graph)

    report["kind"] = kind
    g = rep.form
    report["invariants"] = {"m": rep.m, "det": rep.det, "special": rep.special}
    report["goeritz"] = {
        "vertex_order": [str(v) for v in g.vertex_order],
        "matrix": [list(row) for row in g.matrix],
        "matrix_det": rep.matrix_det,
    }
    report["spinc"] = rep.classes
    report["char_subgraphs"] = [
        {"vertices": list(c.vertices), "cut": c.cut} for c in rep.subgraphs
    ]
    report["obstructions"] = _obstruction_dict(rep)
    report["plumbing"] = _plumbing_section(rep.tree)
    if with_mk1:
        try:
            link = _chainmail.build_chainmail(rep.graph)
            best = min((c for c in rep.subgraphs if c.vertices),
                       key=lambda c: c.cut, default=None)
            if best is None:
                report["mk1"] = {"applicable": False,
                                 "reason": "only the empty sublink exists"}
            else:
                report["mk1"] = _mk1_section(link, [best.vertices])
        except SpinfillError as exc:
            report["mk1"] = {"applicable": False, "reason": str(exc)}
    return report


def _coerce_vertex(token, vertices):
    if token in vertices:
        return token
    try:
        as_int = int(token)
    except (TypeError, ValueError):
        as_int = None
    if as_int is not None and as_int in vertices:
        return as_int
    raise MalformedInput("unknown vertex %r" % (token,))


def _render(report, out):
    w = out.write
    kind = report.get("kind")
    if kind == "diagram":
        d = report["diagram"]
        w("diagram: %d crossings, %d regions, marked arc %s\n"
          % (d["crossings"], d["regions"], report["input"]["marked_arc"]))
        w("kauffman states: %d\n" % d["states"])
    elif kind == "graph":
        w("graph input: %d vertices, marked %s\n"
          % (len(report["input"]["vertices"]), report["input"].get("marked")))
    inv = report["invariants"]
    w("m = %d | det = %d | special = %s\n"
      % (inv["m"], inv["det"], "yes" if inv["special"] else "no"))
    go = report["goeritz"]
    w("goeritz matrix (order: %s):\n" % ", ".join(go["vertex_order"]))
    for row in go["matrix"]:
        w("  [%s]\n" % " ".join("%3d" % x for x in row))
    w("spin-c classes (%d):\n" % len(report["spinc"]))
    for c in report["spinc"]:
        extra = ""
        if c.c1_class is not None:
            extra += " c1=%s%s" % (list(c.c1_class),
                                   " spin" if c.is_spin() else "")
        if c.state_index is not None:
            extra += " state=%d" % c.state_index
        w("  key=%s d=%s%s\n" % (list(c.canonical_key), c.d, extra))
    w("characteristic subgraphs:\n")
    for c in report["char_subgraphs"]:
        w("  %s cut=%d\n" % (c["vertices"] if c["vertices"] else "{}", c["cut"]))
    ob = report["obstructions"]
    w("obstructions:\n")
    w("  b2 bound: b2 <= %d (%s)\n" % (ob["b2_bound"], ob["b2_bound_note"]))
    if ob["spin_d"] is not None:
        w("  spin class: d = %s, sharp bound b2 <= %d\n"
          % (ob["spin_d"], ob["spin_b2_bound"]))
    w("  cutbound (min cut >= m): %s (%s)\n"
      % (ob["cutbound"]["verdict"], ob["cutbound"]["reason"]))
    w("  capbound (min cut >= 9m): %s (%s)\n"
      % (ob["capbound"]["verdict"], ob["capbound"]["reason"]))
    for e in ob["per_subgraph"]:
        mu = "  mu=%s ue=[%s, %s]" % (e.get("mu"), e.get("ue_lower"),
                                      e.get("ue_upper")) if "mu" in e else ""
        w("    C=%s cut=%d %s%s\n" % (e["vertices"], e["cut"], e["verdict"], mu))
    pl = report.get("plumbing")
    if pl:
        if pl.get("applicable"):
            w("plumbing tree: weights %s\n" % pl["weights"])
            nf = pl["normal_form"]
            w("  normal form: n1=%s n2=%s n3=%s\n" % (nf["n1"], nf["n2"], nf["n3"]))
            dec = pl["decision"]
            w("  plumbed spin filling: %s (%s)\n" % (dec["status"], dec["reason"]))
        else:
            w("plumbing: %s\n" % pl["reason"])
    mk = report.get("mk1")
    if isinstance(mk, list):
        _render_mk1_runs(mk, out)
    elif isinstance(mk, dict):
        w("mk1: %s\n" % mk.get("reason"))


def _render_mk1_runs(runs, out):
    w = out.write
    for run in runs:
        w("mk1 on %s: final framing %d at %s, %d slides\n"
          % (run["subset"], run["final_framing"], run["final_vertex"],
             len(run["slides"])))
        for s in run["slides"]:
            w("  slide %s over %s (%s) -> framing %d\n"
              % (s["slid"], s["over"], s["kind"], s["framing_after"]))
        fl = run["filling"]
        w("  filling: b2=%d sigma=%d even=%s f=%d\n"
          % (fl["b2"], fl["sigma"], fl["even_form"], fl["f"]))


_encode_str = json.encoder.encode_basestring_ascii
_int_repr = int.__repr__


def encode_json(doc):
    """The text of json.dumps(doc, sort_keys=True, indent=2).

    doc holds dicts with str keys, lists, tuples, str, int, bool and
    None, and lists of spin-c records (spinc.SpinCClass), such as the
    spin-c table; anything else (a float, a Fraction, a non-str key)
    raises TypeError, since reports carry exact numbers only.  An indent
    sends json.dumps to its pure-Python encoder; this one dispatches on
    the exact type of each value, and writes an all-int list in one join
    and a list of records row by row from their fields.
    """
    chunks = []
    _write_value(doc, "\n", chunks.append, {})
    return "".join(chunks)


def _spinc_list(records, nl):
    """A nonempty list of spin-c records at newline-and-indent nl.

    Each record is written as its row, the dict {"key": [...], "d":
    "p/q"} with "c1" and "spin" when det is odd and "state" on PD input,
    as json.dumps writes it with sorted keys.  key and c1 are never
    empty: a form has rank >= 1.
    """
    row = nl + "  "
    field = row + "  "
    item = field + "  "
    comma = "," + item
    opening = "[" + item
    closing = field + "]"
    rows = []
    for c in records:
        key = opening + comma.join(map(_int_repr, c.canonical_key)) + closing
        if c.c1_class is None:
            text = '{%s"d": "%s",%s"key": %s' % (field, c.d, field, key)
        else:
            text = ('{%s"c1": %s%s%s,%s"d": "%s",%s"key": %s,%s"spin": %s'
                    % (field, opening, comma.join(map(_int_repr, c.c1_class)),
                       closing, field, c.d, field, key, field,
                       "false" if any(c.c1_class) else "true"))
        if c.state_index is not None:
            text += ',%s"state": %d' % (field, c.state_index)
        rows.append(text + row + "}")
    return "[" + row + ("," + row).join(rows) + nl + "]"


def _write_value(x, nl, put, key_prefixes):
    """Put the text of x at newline-and-indent nl; key_prefixes caches
    the written form of each dict key."""
    t = type(x)
    if t is str:
        put(_encode_str(x))
    elif t is int:
        put(_int_repr(x))
    elif t is dict:
        if not x:
            put("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(x):
            prefix = key_prefixes.get(key)
            if prefix is None:
                if type(key) is not str:
                    raise TypeError("report keys must be str, not %s"
                                    % type(key).__name__)
                prefix = key_prefixes[key] = _encode_str(key) + ": "
            put(sep)
            put(prefix)
            _write_value(x[key], inner, put, key_prefixes)
            sep = "," + inner
        put(nl + "}")
    elif t is list or t is tuple:
        if not x:
            put("[]")
            return
        inner = nl + "  "
        # exact types: a bool among the ints prints as true
        kinds = set(map(type, x))
        if kinds == {int}:
            put("[" + inner + ("," + inner).join(map(_int_repr, x))
                + nl + "]")
            return
        if kinds == {_spinc.SpinCClass}:
            put(_spinc_list(x, nl))
            return
        sep = "[" + inner
        for item in x:
            put(sep)
            _write_value(item, inner, put, key_prefixes)
            sep = "," + inner
        put(nl + "]")
    elif x is True:
        put("true")
    elif x is False:
        put("false")
    elif x is None:
        put("null")
    else:
        raise TypeError("%s values are not written to reports"
                        % t.__name__)


def _emit(report, args, out):
    if args.json:
        out.write(encode_json(report))
        out.write("\n")
    else:
        _render(report, out)


def cmd_analyze(args, out):
    kind, doc = _doc_kind(_load(args.file))
    report = _analyze(doc, kind, mark=args.mark, with_mk1=args.mk1)
    _emit(report, args, out)
    return 0


def cmd_obstruct(args, out):
    kind, doc = _doc_kind(_load(args.file))
    report = _analyze(doc, kind, mark=args.mark)
    slim = {
        "kind": report["kind"],
        "invariants": report["invariants"],
        "char_subgraphs": report["char_subgraphs"],
        "obstructions": report["obstructions"],
        "goeritz": report["goeritz"],
        "spinc": report["spinc"],
    }
    _emit(slim if args.json else report, args, out)
    return 0


def cmd_mk1(args, out):
    kind, doc = _doc_kind(_load(args.file))
    if kind == "diagram":
        white = _diagram.white_graph(_diagram.parse_pd(doc))
        link = _chainmail.build_chainmail(white)
    else:
        link = _chainmail.build_chainmail(doc)
    if args.set is not None:
        tokens = [t for t in args.set.split(",") if t]
        subset = tuple(_coerce_vertex(t, link.vertices) for t in tokens)
        for k, v in enumerate(subset):
            if v in subset[:k]:
                raise MalformedInput("vertex %r is repeated in --set" % (v,))
        subsets = [subset]
    else:
        all_subs = [vs for vs in _chainmail.characteristic_subsets(link) if vs]
        if not all_subs:
            raise EmptyCharacteristicSet(
                "only the empty characteristic sublink exists")
        subsets = all_subs if args.all else [all_subs[0]]
    report = {"kind": "mk1", "runs": _mk1_section(link, subsets)}
    if args.json:
        _emit(report, args, out)
    else:
        _render_mk1_runs(report["runs"], out)
    return 0


def cmd_plumb(args, out):
    tree = _plumbing.parse_tree_doc(_load(args.file))
    if args.action == "check":
        nf = _plumbing.check_normal_form(tree)
        report = {
            "kind": "plumb-check",
            "excessive": _plumbing.is_excessive(tree),
            "n1": {"ok": nf.n1_ok, "violations": [str(v) for v in nf.n1_violations]},
            "n2": {"ok": nf.n2_ok, "violations": [str(v) for v in nf.n2_violations]},
            "n3": {"ok": nf.n3_ok, "violations": [str(v) for v in nf.n3_violations]},
        }
        if args.json:
            _emit(report, args, out)
        else:
            out.write("excessive: %s\n" % report["excessive"])
            for key in ("n1", "n2", "n3"):
                sec = report[key]
                out.write("%s: %s%s\n" % (key, "ok" if sec["ok"] else "violated",
                                          "" if sec["ok"] else " at %s" % sec["violations"]))
    elif args.action == "reduce":
        normal, log = _plumbing.reduce_normal_form(tree)
        report = {
            "kind": "plumb-reduce",
            "moves": [list(map(str, mv)) for mv in log],
            "normal_form": {
                "vertices": [str(v) for v in normal.vertices],
                "weights": list(normal.weights),
                "edges": [[str(u), str(v)] for (u, v) in normal.edges],
            },
        }
        if args.json:
            _emit(report, args, out)
        else:
            for mv in report["moves"]:
                out.write("move: %s\n" % " ".join(mv))
            out.write("normal form: %d vertices, weights %s\n"
                      % (len(normal.vertices), list(normal.weights)))
    else:
        verdict = _plumbing.decide_plumbed(tree)
        report = {"kind": "plumb-decide", "status": verdict.status,
                  "reason": verdict.reason, "det": verdict.det}
        if args.json:
            _emit(report, args, out)
        else:
            out.write("%s (det %d): %s\n"
                      % (verdict.status.upper(), verdict.det, verdict.reason))
    return 0


def cmd_cf(args, out):
    terms = _plumbing.neg_cf(args.p, args.q)
    if args.json:
        _emit({"kind": "cf", "p": args.p, "q": args.q, "terms": terms},
              args, out)
    else:
        out.write("%d/%d = %s\n" % (args.p, args.q, terms))
        out.write("linear plumbing weights: %s\n" % [-a for a in terms])
    return 0


def cmd_berge(args, out):
    pairs = _plumbing.berge_ipm(args.i, args.k)
    report = {"kind": "berge", "i": args.i, "k": args.k,
              "plus": list(pairs[0]) if pairs[0] else None,
              "minus": list(pairs[1]) if pairs[1] else None}
    if args.json:
        _emit(report, args, out)
    else:
        out.write("p = i k + 1: %s\n" % (pairs[0],))
        out.write("p = i k - 1: %s\n" % (pairs[1],))
    return 0


def cmd_witness(args, out):
    graph, weights, _, _ = parse_graph_doc(_load(args.file))
    if weights is None:
        raise MalformedInput("witness input needs vertex weights")
    bare = MarkedGraph(graph.vertices, graph.edges)
    augmented = _plumbing.accessible_witness(bare, weights)
    doc = graph_to_doc(augmented)
    report = {"kind": "witness", "augmented": doc,
              "hub_edges": {
                  str(v): augmented.edges_between(augmented.marked, v)
                  for v in graph.vertices}}
    if args.json:
        _emit(report, args, out)
    else:
        out.write("hub multiplicities: %s\n" % report["hub_edges"])
        out.write(json.dumps(doc, sort_keys=True))
        out.write("\n")
    return 0


@functools.cache
def build_parser():
    """Built once per process and shared: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="spinfill",
        description="Branched-double-cover invariants of alternating links "
                    "and spin-filling obstructions.")
    ap.add_argument("--json", action="store_true",
                    help="machine readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline on a diagram or marked graph")
    p.add_argument("file")
    p.add_argument("--mark", default=None, help="marked arc or vertex override")
    p.add_argument("--mk1", action="store_true", help="include a slide log")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("obstruct", help="obstruction report only")
    p.add_argument("file")
    p.add_argument("--mark", default=None)
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("mk1", help="handle-slide simulation")
    p.add_argument("file")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--set", default=None,
                       help="comma separated vertex ids, each at most once")
    which.add_argument("--all", action="store_true",
                       help="run on every characteristic sublink")
    p.set_defaults(func=cmd_mk1)

    p = sub.add_parser("plumb", help="plumbing tree operations")
    p.add_argument("action", choices=("check", "reduce", "decide"))
    p.add_argument("file")
    p.set_defaults(func=cmd_plumb)

    p = sub.add_parser("cf", help="negative continued fraction of p/q")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("berge", help="surgery parameters p = ik +- 1")
    p.add_argument("i", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_berge)

    p = sub.add_parser("witness", help="hub construction for a weighted graph")
    p.add_argument("file")
    p.set_defaults(func=cmd_witness)
    return ap


def _write(stream, text):
    """Write text at once; a character the stream's encoding lacks is
    written as its backslash escape instead of failing midway."""
    encoding = getattr(stream, "encoding", None)
    if encoding:
        text = text.encode(encoding, "backslashreplace").decode(encoding)
    stream.write(text)


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    out = io.StringIO()
    try:
        code = args.func(args, out)
    except MalformedInput as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (CertificationFailure, NotReducible) as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 4
    except SpinfillError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except RecursionError:
        # the state walk and the lattice search recurse once per
        # crossing or lattice level
        print("error: input too large: it nests deeper than the "
              "recursion limit", file=sys.stderr)
        return 3
    _write(sys.stdout, out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
