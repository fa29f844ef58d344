"""Command line front end.

Three subcommands:

    cayleysrg analyze N [--oracle]
        Certify regularity for modulus N (N <= 246) from the connection
        set, build the claimed automorphism group and its origin
        stabiliser, classify transitivity, optionally build the graph and
        cross-check against the independent automorphism count of
        search.py (N <= 31), and print one JSON report to stdout.

    cayleysrg export N --format {graph6,dot}
        Print the graph in the requested format (N <= 110).

    cayleysrg verify LO..HI [--oracle-upto M]
        Run the analyze checks for every modulus in the range (HI <= 246),
        print a JSON summary to stdout and a table to stderr, one row as
        soon as each modulus finishes.

JSON always goes to stdout, everything human-oriented to stderr.  Exit 0
means every predicted value matched, 1 means some check failed, 2 means
the invocation itself was bad.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .core import units
from .graph import build_graph, connection_indices
# analyze_report calls neither check_strongly_regular nor intersection_array;
# they stay names here because bench/tracing.py wraps every regularity entry
# point where cli imports it.
from .regularity import (IntersectionArray, cayley_srg_params, check_strongly_regular,
                         intersection_array)
from .search import BRUTE_FORCE_MAX_MODULUS, enumerate_automorphisms
from .symmetries import claimed_aut_group
from .transitivity import TransitivityReport, classify_action
from .formats import to_dot, to_graph6

__all__ = ["main", "run", "analyze_report", "verify_range", "predicted_values"]

# export, both formats: at the cap, graph6 writes 12 MB in about 0.6 s and
# 89 MB peak RSS, DOT writes 32 MB in about 1.5 s and 132 MB (whole CLI run,
# 2 vCPUs, CPython 3.11.7).
EXPORT_MAX_MODULUS = 110
# analyze and verify: analyze builds no adjacency rows, so peak RSS grows
# with phi(n) * n**2, G_0's chain at degree n**2, and is largest at 241:
# 1.1-1.5 s and 532 MB, group 0.9-1.2 s, transitivity 0.25-0.31.  243 is the
# slowest, 1.5-1.7 s and 383 MB, transitivity 0.9-1.0; 236..246 otherwise
# take 233-514 MB (CI runs both; 2 vCPUs, CPython 3.11.7).  Raising the cap
# waits for G_0 to leave degree n**2.
ANALYZE_MAX_MODULUS = 246


def predicted_values(n: int) -> dict:
    """What the theory says analyze must find for modulus n."""
    phi = units(n).totient
    prime = phi == n - 1  # phi(n) = n - 1 exactly when n is prime
    return {
        "srg_params": {"v": n * n, "k": 3 * n - 3, "lambda": n, "mu": 6},
        "intersection_array": {"b": [3 * n - 3, 2 * n - 4], "c": [1, 6], "diameter": 2},
        "claimed_group_order": 6 * n * n * phi,
        "stabilizer_order": 6 * phi,
        "transitivity": {
            "vertex_transitive": True,
            "edge_transitive": prime,
            "arc_transitive": prime,
            "distance_transitive": n == 5,
            "two_arc_transitive": False,
        },
    }


def _witness_json(w):
    if w is None:
        return None
    return [list(part) for part in w]


def _transitivity_json(rep: TransitivityReport) -> dict:
    return {
        "vertex_transitive": rep.vertex_transitive,
        "edge_transitive": rep.edge_transitive,
        "arc_transitive": rep.arc_transitive,
        "distance_transitive": rep.distance_transitive,
        "two_arc_transitive": rep.two_arc_transitive,
        "witnesses": {
            key: _witness_json(rep.witnesses[key])
            for key in ("vertex", "edge", "arc", "distance", "two_arc")
        },
        "orbit_counts": {
            key: list(rep.orbit_counts[key])
            for key in ("edges", "arcs", "distance2_pairs", "two_arcs")
        },
    }


def analyze_report(n: int, with_oracle: bool = False) -> tuple[dict, list[str]]:
    """Run the full analysis for one modulus.

    Returns the JSON-ready report and the list of failed checks (empty when
    everything matched the predictions).  An n outside 4..ANALYZE_MAX_MODULUS,
    or the oracle past BRUTE_FORCE_MAX_MODULUS, raises ValueError first.
    """
    if not 4 <= n <= ANALYZE_MAX_MODULUS:
        raise ValueError(f"n must be between 4 and {ANALYZE_MAX_MODULUS}, got {n}")
    if with_oracle and n > BRUTE_FORCE_MAX_MODULUS:
        raise ValueError(f"the oracle needs n <= {BRUTE_FORCE_MAX_MODULUS}, got {n}")
    expected = predicted_values(n)
    timings: dict[str, float] = {}

    # The graph is Cay(Z_n x Z_n, S), so S is all regularity reads; the rows
    # are built only for the oracle, which searches them.
    t = time.perf_counter()
    hood = connection_indices(n)
    timings["build_graph"] = round(time.perf_counter() - t, 6)

    t = time.perf_counter()
    srg = cayley_srg_params(n, hood)
    # Connected and not complete, as cayley_srg_params proved, an SRG has
    # diameter 2 and this array (Brouwer, Cohen & Neumaier 1989, section 1.3).
    arr = IntersectionArray(b=(srg.k, srg.k - srg.lam - 1), c=(1, srg.mu), diameter=2)
    timings["regularity"] = round(time.perf_counter() - t, 6)

    t = time.perf_counter()
    grp = claimed_aut_group(n)
    group_order = grp.order()
    timings["group"] = round(time.perf_counter() - t, 6)

    t = time.perf_counter()
    stab_order = grp.point_stabilizer(0).order()
    timings["stabilizer"] = round(time.perf_counter() - t, 6)

    t = time.perf_counter()
    trans = classify_action(grp)
    timings["transitivity"] = round(time.perf_counter() - t, 6)

    oracle = None
    if with_oracle:
        # The automorphisms the search found generate Aut, so all of them in
        # the claimed group means Aut <= G; with |Aut| = |G| the two are equal.
        t = time.perf_counter()
        found = enumerate_automorphisms(build_graph(n))
        agreement = len(found) == group_order and all(
            grp.contains(p) for p in found.generators
        )
        oracle = {"brute_order": len(found), "agreement": agreement}
        timings["oracle"] = round(time.perf_counter() - t, 6)

    report = {
        "n": n,
        "srg_params": {"v": srg.v, "k": srg.k, "lambda": srg.lam, "mu": srg.mu},
        "intersection_array": {
            "b": list(arr.b), "c": list(arr.c), "diameter": arr.diameter,
        },
        "claimed_group_order": group_order,
        "stabilizer_order": stab_order,
        "transitivity": _transitivity_json(trans),
        "oracle": oracle,
        "timings": timings,
    }

    failures = []
    if report["srg_params"] != expected["srg_params"]:
        failures.append("srg_params")
    if report["intersection_array"] != expected["intersection_array"]:
        failures.append("intersection_array")
    if group_order != expected["claimed_group_order"]:
        failures.append("claimed_group_order")
    if stab_order != expected["stabilizer_order"]:
        failures.append("stabilizer_order")
    if group_order != n * n * stab_order:
        failures.append("orbit_stabilizer_identity")
    got_trans = {
        key: report["transitivity"][key] for key in expected["transitivity"]
    }
    if got_trans != expected["transitivity"]:
        failures.append("transitivity")
    if oracle is not None and not oracle["agreement"]:
        failures.append("oracle")
    return report, failures


def verify_range(lo: int, hi: int, oracle_upto: int | None = None) -> dict:
    """Analyze every modulus in [lo, hi] and collect pass/fail rows.

    Prints the table header to stderr first, then each row as soon as its
    modulus finishes.  A range with lo < 4, lo > hi or hi above
    ANALYZE_MAX_MODULUS, and an oracle_upto outside 4..BRUTE_FORCE_MAX_MODULUS,
    raise ValueError before anything is printed.
    """
    if not 4 <= lo <= hi <= ANALYZE_MAX_MODULUS:
        raise ValueError(f"range must satisfy 4 <= lo <= hi <= {ANALYZE_MAX_MODULUS}, "
                         f"got {lo}..{hi}")
    if oracle_upto is not None and not 4 <= oracle_upto <= BRUTE_FORCE_MAX_MODULUS:
        raise ValueError(f"oracle_upto must be between 4 and {BRUTE_FORCE_MAX_MODULUS}, "
                         f"got {oracle_upto}")
    head = (f"{'n':>4}  {'order':>10}  {'edge':>5}  {'arc':>5}  {'dist':>5}  "
            f"{'2arc':>5}  {'oracle':>7}  result")
    print(head, file=sys.stderr, flush=True)
    results = []
    for n in range(lo, hi + 1):
        with_oracle = oracle_upto is not None and n <= oracle_upto
        report, failures = analyze_report(n, with_oracle=with_oracle)
        results.append({
            "n": n,
            "claimed_group_order": report["claimed_group_order"],
            "transitivity": {
                key: report["transitivity"][key]
                for key in (
                    "vertex_transitive", "edge_transitive", "arc_transitive",
                    "distance_transitive", "two_arc_transitive",
                )
            },
            "oracle": report["oracle"],
            "failed_checks": failures,
            "passed": not failures,
        })
        _print_verify_row(results[-1])
    return {
        "lo": lo,
        "hi": hi,
        "oracle_upto": oracle_upto,
        "results": results,
        "all_passed": all(row["passed"] for row in results),
    }


def _print_verify_row(row: dict) -> None:
    tr = row["transitivity"]
    oracle = row["oracle"]
    otext = "-" if oracle is None else f"{oracle['brute_order']}"
    status = "ok" if row["passed"] else "FAIL(" + ",".join(row["failed_checks"]) + ")"
    print(
        f"{row['n']:>4}  {row['claimed_group_order']:>10}  "
        f"{str(tr['edge_transitive']):>5}  {str(tr['arc_transitive']):>5}  "
        f"{str(tr['distance_transitive']):>5}  {str(tr['two_arc_transitive']):>5}  "
        f"{otext:>7}  {status}",
        file=sys.stderr, flush=True,
    )


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    # ASCII digits only: str.isdigit also takes full-width and superscript digits
    if not sep or not (lo + hi).isascii() or not lo.isdigit() or not hi.isdigit():
        raise ValueError(f"range must look like 4..10, got {text!r}")
    return int(lo), int(hi)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleysrg",
        description="Strongly regular Cayley graphs on Z_n x Z_n and their symmetries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full analysis of one modulus as JSON "
                                          f"(n <= {ANALYZE_MAX_MODULUS})")
    p_an.add_argument("n", type=int)
    p_an.add_argument("--oracle", action="store_true",
                      help="check the claimed group against the automorphisms found "
                           f"from the graph alone (n <= {BRUTE_FORCE_MAX_MODULUS})")

    p_ex = sub.add_parser("export", help=f"print the graph (n <= {EXPORT_MAX_MODULUS})")
    p_ex.add_argument("n", type=int)
    p_ex.add_argument("--format", required=True, choices=("graph6", "dot"))

    p_ve = sub.add_parser("verify", help="check a whole range of moduli "
                                         f"(at most {ANALYZE_MAX_MODULUS})")
    p_ve.add_argument("range", help="inclusive modulus range, e.g. 4..10")
    p_ve.add_argument("--oracle-upto", type=int, default=None,
                      help="also run the --oracle cross-check on moduli up to this "
                           f"bound (4 to {BRUTE_FORCE_MAX_MODULUS})")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "analyze":
        if not 4 <= args.n <= ANALYZE_MAX_MODULUS:
            parser.error(f"n must be between 4 and {ANALYZE_MAX_MODULUS}")
        if args.oracle and args.n > BRUTE_FORCE_MAX_MODULUS:
            parser.error(f"--oracle needs n <= {BRUTE_FORCE_MAX_MODULUS}")
        report, failures = analyze_report(args.n, with_oracle=args.oracle)
        print(json.dumps(report, indent=2))
        if failures:
            print(f"MISMATCH for n={args.n}: {', '.join(failures)}", file=sys.stderr)
            return 1
        print(f"n={args.n}: all predicted values matched", file=sys.stderr)
        return 0

    if args.command == "export":
        if not 4 <= args.n <= EXPORT_MAX_MODULUS:
            parser.error(f"n must be between 4 and {EXPORT_MAX_MODULUS}")
        g = build_graph(args.n)
        if args.format == "graph6":
            print(to_graph6(g))
        else:
            sys.stdout.write(to_dot(g))
        return 0

    if args.command == "verify":
        try:
            lo, hi = _parse_range(args.range)
        except ValueError as exc:
            parser.error(str(exc))
        if not 4 <= lo <= hi <= ANALYZE_MAX_MODULUS:
            parser.error(f"range must satisfy 4 <= lo <= hi <= {ANALYZE_MAX_MODULUS}")
        if args.oracle_upto is not None and not 4 <= args.oracle_upto <= BRUTE_FORCE_MAX_MODULUS:
            parser.error(f"--oracle-upto must be between 4 and {BRUTE_FORCE_MAX_MODULUS}")
        summary = verify_range(lo, hi, oracle_upto=args.oracle_upto)
        print(json.dumps(summary, indent=2))
        return 0 if summary["all_passed"] else 1

    parser.error(f"unknown command {args.command!r}")
    return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
