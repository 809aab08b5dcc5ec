"""Per-op output checks.

Each op is checked against what the generator knows about its input,
never against another run of the program.  The digest returned here is
compared with the recorded default-seed reference by the caller; for
``obstruct`` it covers only the verdict sections, so a faster path that
drops the spin-c table from that command's output still passes.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

OBSTRUCT_KEYS = ("invariants", "char_subgraphs", "obstructions")


def output_digest(command, report):
    if command == "obstruct":
        report = {k: report.get(k) for k in OBSTRUCT_KEYS}
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _neg_cf_value(terms):
    value = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        value = a - 1 / value
    return value


def _check_invariants(report, expect, problems):
    inv = report["invariants"]
    if inv["det"] != expect["det"]:
        problems.append("det %r, generator says %r" % (inv["det"], expect["det"]))
    if expect.get("m") is not None and inv["m"] != expect["m"]:
        problems.append("m %r, generator says %r" % (inv["m"], expect["m"]))
    if (expect.get("char_subgraphs") is not None
            and len(report["char_subgraphs"]) != expect["char_subgraphs"]):
        problems.append("%d characteristic subgraphs, expected %d"
                        % (len(report["char_subgraphs"]),
                           expect["char_subgraphs"]))


def _check_analyze(report, expect, problems):
    _check_invariants(report, expect, problems)
    rows = report["spinc"]
    if not len(rows) == expect["det"] == abs(report["goeritz"]["matrix_det"]):
        problems.append("%d spin-c rows, |matrix_det| %d, |det| %d"
                        % (len(rows), abs(report["goeritz"]["matrix_det"]),
                           expect["det"]))
    if expect["kind"] == "diagram":
        if report["diagram"]["states"] != expect["det"]:
            problems.append("%d Kauffman states for |det| %d"
                            % (report["diagram"]["states"], expect["det"]))
        states = {row.get("state") for row in rows}
        if None in states or len(states) != len(rows):
            problems.append("spin-c rows do not carry distinct states")


def check(op, code, out):
    """(problems, digest) for one finished op; no problems means ok."""
    if code != 0:
        return ["exit code %r" % (code,)], None
    argv, expect = op["argv"], op["expect"]
    command = argv[1]
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return ["output is not JSON: %s" % exc], None
    problems = []
    try:
        if command == "analyze":
            _check_analyze(report, expect, problems)
        elif command == "obstruct":
            _check_invariants(report, expect, problems)
        elif command == "mk1":
            if len(report["runs"]) != expect["sublinks"]:
                problems.append("%d mk1 runs for %d characteristic sublinks"
                                % (len(report["runs"]), expect["sublinks"]))
        elif command == "plumb":
            if report["kind"] != "plumb-" + argv[2]:
                problems.append("kind %r" % report["kind"])
        elif command == "witness":
            hub = report["hub_edges"]
            for v, extra in expect["hub_edges"].items():
                if hub.get(v) != extra:
                    problems.append("hub edges at %s: %r, expected %d"
                                    % (v, hub.get(v), extra))
                    break
        elif command == "cf":
            p, q = int(argv[2]), int(argv[3])
            if _neg_cf_value(report["terms"]) != Fraction(p, q):
                problems.append("continued fraction does not evaluate to p/q")
        elif command == "berge":
            i, k = int(argv[2]), int(argv[3])
            for key, p in (("plus", i * k + 1), ("minus", i * k - 1)):
                want = [p, (-k * k) % p] if p >= 2 else None
                if report[key] != want:
                    problems.append("%s: %r, expected %r"
                                    % (key, report[key], want))
    except (KeyError, TypeError, IndexError) as exc:
        problems.append("output lacks a field: %r" % (exc,))
    return problems, output_digest(command, report)
