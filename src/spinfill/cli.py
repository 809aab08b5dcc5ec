"""Command line front end.

One executable with subcommands; input documents are JSON files.  Each
command builds a report and main writes it once: as a deterministic text
rendering of its kind or, with --json, as a machine readable document.
Exit codes: 0 ok, 2 malformed input, 3 invalid topology or failed
preconditions, 4 internal assertion failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import _import_lazily
from . import plumbing as _plumbing
from . import spinc as _spinc
from .errors import CertificationFailure, MalformedInput, SpinfillError
from .graphs import MarkedGraph, _as_document, graph_to_doc, parse_graph_doc

# run by the commands that slide a link or read a PD code, at their
# first use
_chainmail = _import_lazily("spinfill.chainmail")
_diagram = _import_lazily("spinfill.diagram")


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
            entry["mu"] = str(e.mu)
            entry["ue_lower"] = str(e.ue_lower)
            entry["ue_upper"] = str(e.ue_upper)
        entries.append(entry)
    return {
        "m": rep.m,
        "det": rep.det,
        "special": rep.special,
        "b2_bound": rep.b2_bound,
        "b2_bound_note": "equality only for special links",
        "spin_d": str(rep.spin_d) if rep.spin_d is not None else None,
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
        stats = _chainmail.kaplan_filling(link, log)
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
        except CertificationFailure:
            raise
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


def _render_analysis(report):
    lines = []
    w = lines.append
    kind = report["kind"]
    if kind == "diagram":
        d = report["diagram"]
        w("diagram: %d crossings, %d regions, marked arc %s"
          % (d["crossings"], d["regions"], report["input"]["marked_arc"]))
        w("kauffman states: %d" % d["states"])
    else:
        w("graph input: %d vertices, marked %s"
          % (len(report["input"]["vertices"]), report["input"].get("marked")))
    inv = report["invariants"]
    w("m = %d | det = %d | special = %s"
      % (inv["m"], inv["det"], "yes" if inv["special"] else "no"))
    go = report["goeritz"]
    w("goeritz matrix (order: %s):" % ", ".join(go["vertex_order"]))
    for row in go["matrix"]:
        w("  [%s]" % " ".join("%3d" % x for x in row))
    w("spin-c classes (%d):" % len(report["spinc"]))
    for c in report["spinc"]:
        extra = ""
        if c.c1_class is not None:
            extra += " c1=%s%s" % (list(c.c1_class),
                                   " spin" if c.is_spin() else "")
        if c.state_index is not None:
            extra += " state=%d" % c.state_index
        w("  key=%s d=%s%s" % (list(c.canonical_key), c.d, extra))
    w("characteristic subgraphs:")
    for c in report["char_subgraphs"]:
        w("  %s cut=%d" % (c["vertices"] if c["vertices"] else "{}", c["cut"]))
    ob = report["obstructions"]
    w("obstructions:")
    w("  b2 bound: b2 <= %d (%s)" % (ob["b2_bound"], ob["b2_bound_note"]))
    if ob["spin_d"] is not None:
        w("  spin class: d = %s, sharp bound b2 <= %d"
          % (ob["spin_d"], ob["spin_b2_bound"]))
    w("  cutbound (min cut >= m): %s (%s)"
      % (ob["cutbound"]["verdict"], ob["cutbound"]["reason"]))
    w("  capbound (min cut >= 9m): %s (%s)"
      % (ob["capbound"]["verdict"], ob["capbound"]["reason"]))
    for e in ob["per_subgraph"]:
        mu = "  mu=%s ue=[%s, %s]" % (e.get("mu"), e.get("ue_lower"),
                                      e.get("ue_upper")) if "mu" in e else ""
        w("    C=%s cut=%d %s%s" % (e["vertices"], e["cut"], e["verdict"], mu))
    pl = report["plumbing"]
    if pl["applicable"]:
        w("plumbing tree: weights %s" % pl["weights"])
        nf = pl["normal_form"]
        w("  normal form: n1=%s n2=%s n3=%s" % (nf["n1"], nf["n2"], nf["n3"]))
        dec = pl["decision"]
        w("  plumbed spin filling: %s (%s)" % (dec["status"], dec["reason"]))
    else:
        w("plumbing: %s" % pl["reason"])
    mk = report.get("mk1")
    if isinstance(mk, list):
        lines += _mk1_lines(mk)
    elif mk is not None:
        w("mk1: %s" % mk["reason"])
    return lines


def _mk1_lines(runs):
    lines = []
    for run in runs:
        lines.append("mk1 on %s: final framing %d at %s, %d slides"
                     % (run["subset"], run["final_framing"],
                        run["final_vertex"], len(run["slides"])))
        for s in run["slides"]:
            lines.append("  slide %s over %s (%s) -> framing %d"
                         % (s["slid"], s["over"], s["kind"],
                            s["framing_after"]))
        fl = run["filling"]
        lines.append("  filling: b2=%d sigma=%d even=%s f=%d"
                     % (fl["b2"], fl["sigma"], fl["even_form"], fl["f"]))
    return lines


def _render_plumb_check(report):
    lines = ["excessive: %s" % report["excessive"]]
    for key in ("n1", "n2", "n3"):
        sec = report[key]
        lines.append("%s: %s" % (key, "ok" if sec["ok"] else
                                 "violated at %s" % sec["violations"]))
    return lines


def _render_plumb_reduce(report):
    nf = report["normal_form"]
    return ["move: %s" % " ".join(mv) for mv in report["moves"]] + [
        "normal form: %d vertices, weights %s"
        % (len(nf["vertices"]), nf["weights"])]


# one text renderer per report kind; each returns the report's lines
_RENDERERS = {
    "diagram": _render_analysis,
    "graph": _render_analysis,
    "mk1": lambda r: _mk1_lines(r["runs"]),
    "plumb-check": _render_plumb_check,
    "plumb-reduce": _render_plumb_reduce,
    "plumb-decide": lambda r: ["%s (det %d): %s" % (
        r["status"].upper(), r["det"], r["reason"])],
    "cf": lambda r: ["%d/%d = %s" % (r["p"], r["q"], r["terms"]),
                     "linear plumbing weights: %s" % [-a for a in r["terms"]]],
    "berge": lambda r: ["p = i k %s 1: %s" % (sign, r[side] and tuple(r[side]))
                        for sign, side in (("+", "plus"), ("-", "minus"))],
    "witness": lambda r: ["hub multiplicities: %s" % r["hub_edges"],
                          json.dumps(r["augmented"], sort_keys=True)],
}


_encode_str = json.encoder.encode_basestring_ascii
_int_repr = int.__repr__


def encode_json(doc):
    """The text of json.dumps(doc, sort_keys=True, indent=2).

    doc holds dicts with str keys, lists, tuples, str, int, bool and
    None, and spin-c tables: lists of spin-c records (spinc.SpinCClass)
    of one shape.  Anything else (a float, a Fraction, a non-str key,
    records of mixed shapes) raises TypeError, since reports carry exact
    numbers only and each table comes from one form.  An indent sends
    json.dumps to its pure-Python encoder; this one dispatches on the
    exact type of each value, and writes an all-int list in one join and
    a table row by row from its records' fields.
    """
    chunks = []
    _write_value(doc, "\n", chunks.append, {})
    return "".join(chunks)


def _spinc_list(records, nl):
    """A nonempty list of spin-c records at newline-and-indent nl.

    Each record is written as its row, the dict {"key": [...], "d":
    "p/q"} with "c1" and "spin" when det is odd and "state" on PD input,
    as json.dumps writes it with sorted keys.  key and c1 are never
    empty: a form has rank >= 1.  The records of a table share the
    shape of the first one, checked in bulk, and one format string
    writes all their rows; records of mixed shapes raise TypeError.
    """
    row = nl + "  "
    keys, _, c1s, states = zip(*records)
    key, _, c1, state = records[0]
    shape = rank, c1_rank, pd = (len(key), None if c1 is None else len(c1),
                                 state is not None)
    n = len(records)
    if not (set(map(len, keys)) == {rank}
            and states.count(None) == (0 if pd else n)
            and (c1s.count(None) == n if c1_rank is None else
                 None not in c1s and set(map(len, c1s)) == {c1_rank})):
        raise TypeError("spin-c records of mixed shapes are not written "
                        "to reports")
    rows = _spinc_rows(records, shape, row)
    return "[" + row + ("," + row).join(rows) + nl + "]"


def _spinc_rows(records, shape, row):
    """The rows of records of one shape at newline-and-indent row, each
    one % of a format string with %d for the coordinates, %s for d and
    the spin field and, last, the state: %d, or %.0s, which writes
    nothing, when there is none."""
    rank, c1_rank, pd = shape
    field = row + "  "
    item = field + "  "

    def coords(k):
        return "[" + item + ("," + item).join(["%d"] * k) + field + "]"

    key_d = field + '"d": "%s",' + field + '"key": ' + coords(rank)
    state = ("," + field + '"state": %d' if pd else "%.0s") + row + "}"
    if c1_rank is None:
        template = "{" + key_d + state
        return [template % (d, *key, s) for key, d, _, s in records]
    template = ("{" + field + '"c1": ' + coords(c1_rank) + "," + key_d
                + "," + field + '"spin": %s' + state)
    zero = (0,) * c1_rank
    return [template % (*c1, d, *key, _SPIN[c1 != zero], s)
            for key, d, c1, s in records]


_SPIN = ("true", "false")   # the spin field, by whether c1 is nonzero


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


def cmd_analyze(args):
    kind, doc = _doc_kind(_load(args.file))
    return _analyze(doc, kind, mark=args.mark, with_mk1=args.mk1)


# the sections of the analyze report that obstruct --json keeps
_OBSTRUCT_KEYS = ("kind", "invariants", "char_subgraphs", "obstructions",
                  "goeritz", "spinc")


def cmd_obstruct(args):
    kind, doc = _doc_kind(_load(args.file))
    report = _analyze(doc, kind, mark=args.mark)
    if args.json:
        return {key: report[key] for key in _OBSTRUCT_KEYS}
    return report


def cmd_mk1(args):
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
        if not subset:
            raise SpinfillError("nothing to slide")
        subsets = [subset]
    else:
        all_subs = [vs for vs in _chainmail.characteristic_subsets(link) if vs]
        if not all_subs:
            raise SpinfillError(
                "only the empty characteristic sublink exists")
        subsets = all_subs if args.all else [all_subs[0]]
    return {"kind": "mk1", "runs": _mk1_section(link, subsets)}


def cmd_plumb(args):
    tree = _plumbing.parse_tree_doc(_load(args.file))
    if args.action == "check":
        nf = _plumbing.check_normal_form(tree)
        return {
            "kind": "plumb-check",
            "excessive": _plumbing.is_excessive(tree),
            "n1": {"ok": nf.n1_ok, "violations": [str(v) for v in nf.n1_violations]},
            "n2": {"ok": nf.n2_ok, "violations": [str(v) for v in nf.n2_violations]},
            "n3": {"ok": nf.n3_ok, "violations": [str(v) for v in nf.n3_violations]},
        }
    if args.action == "reduce":
        normal, log = _plumbing.reduce_normal_form(tree)
        return {
            "kind": "plumb-reduce",
            "moves": [list(map(str, mv)) for mv in log],
            "normal_form": {
                "vertices": [str(v) for v in normal.vertices],
                "weights": list(normal.weights),
                "edges": [[str(u), str(v)] for (u, v) in normal.edges],
            },
        }
    verdict = _plumbing.decide_plumbed(tree)
    return {"kind": "plumb-decide", "status": verdict.status,
            "reason": verdict.reason, "det": verdict.det}


def cmd_cf(args):
    return {"kind": "cf", "p": args.p, "q": args.q,
            "terms": _plumbing.neg_cf(args.p, args.q)}


def cmd_berge(args):
    plus, minus = _plumbing.berge_ipm(args.i, args.k)
    return {"kind": "berge", "i": args.i, "k": args.k,
            "plus": list(plus) if plus else None,
            "minus": list(minus) if minus else None}


def cmd_witness(args):
    graph, weights, _, _ = parse_graph_doc(_load(args.file))
    if weights is None:
        raise MalformedInput("witness input needs vertex weights")
    bare = MarkedGraph(graph.vertices, graph.edges)
    augmented = _plumbing.accessible_witness(bare, weights)
    # v gets -w(v) - deg(v) hub edges; accessible_witness certifies
    # them against the Goeritz diagonal
    degree = bare.degrees
    return {"kind": "witness", "augmented": graph_to_doc(augmented),
            "hub_edges": {str(v): -w - degree[v]
                          for v, w in zip(graph.vertices, weights)}}


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
    """Run one command and write its report to stdout, as JSON under
    --json and as text otherwise; a failing command writes nothing."""
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
        if args.json:
            text = encode_json(report) + "\n"
        else:
            text = "".join(line + "\n"
                           for line in _RENDERERS[report["kind"]](report))
    except MalformedInput as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CertificationFailure as exc:
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
    _write(sys.stdout, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
