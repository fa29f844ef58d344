"""Workload inputs, the timed calls into the package, and the output checks.

Each workload turns a seed into its inputs (``inputs``), runs them through
the package's public API while timing every modulus (``RUNNERS``), and then
checks every output against values recomputed here from first principles
or pinned from the seed revision (``CHECKS``).  Only the runner is timed.

Seeds are comparable only with themselves.  Seed 0 runs the reference
sets; any other seed draws one of the cost-matched alternatives from the
same bands (see README.md for why the bands are restricted).  Moduli always
run in ascending order: the order changes the peak memory by up to 10 %.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from time import perf_counter

import cayleysrg.cli as cli
import cayleysrg.formats as formats
import cayleysrg.graph as graph
import cayleysrg.regularity as regularity
import cayleysrg.symmetries as symmetries

# certify_ladder: one prime and one composite from 10-14 and from 15-18.
# Every set holds 17, the only prime of the upper band, so the slowest
# modulus and the peak memory are the same for every seed; the other two
# are the only sets whose summed analyze time stays within 2 % of the
# reference set {12, 13, 16, 17} (normalised CPython 3.11 timings).
LADDER_SETS = ((12, 13, 16, 17), (11, 14, 16, 17), (13, 14, 15, 17))

# scale_certify: a prime and a composite from 28-32 plus one graph6 export
# from 76-84.  Every other pick moved the wall time by 5 % or more, or the
# peak memory by 4 % or more per step of the export modulus, so the inputs
# do not depend on the seed.
SCALE_MODULI = (30, 31)
EXPORT_MODULUS = 80

# verify_sweep: verify 4..H with the brute-force oracle up to 7.  H = 11 or
# 13 moves the wall time by 10-20 % against H = 12, so H is fixed.
SWEEP_HI = 12
ORACLE_UPTO = 7
ORACLE_COUNTS = {4: 192, 5: 600, 6: 432, 7: 1764}

# sha256 (first 16 hex digits) of the canonical JSON of the report keys
# that exist at the seed revision, timings excluded.
REPORT_DIGESTS = {
    11: "8e422ba7746ac3e6", 12: "d316600a07c428ab", 13: "3a40a5841dec0b15",
    14: "087d58361e287838", 15: "4a9e9a76a55a5068", 16: "4247f4ed1d2802ca",
    17: "41363889128e9ed2",
}
VERIFY_DIGEST = "6ee47377dc93e640"
GRAPH6_DIGEST = "000785a3cd9d7241"


def inputs(workload: str, seed: int) -> dict:
    """The inputs of one workload for one seed; seed 0 is the reference."""
    if workload == "certify_ladder":
        moduli = LADDER_SETS[0] if seed == 0 else random.Random(seed).choice(LADDER_SETS)
        return {"moduli": list(moduli)}
    if workload == "scale_certify":
        return {"units": [*SCALE_MODULI, f"export {EXPORT_MODULUS}"]}
    if workload == "verify_sweep":
        return {"argv": ["verify", f"4..{SWEEP_HI}", "--oracle-upto", str(ORACLE_UPTO)]}
    raise ValueError(f"unknown workload {workload!r}")


# -- timed runners -------------------------------------------------------
# Each returns ((start, end) clock readings per modulus, outputs, bytes of
# JSON the CLI emits).
# Package functions are looked up through their modules at call time, so
# the traced run's wrappers see every call.

def run_certify_ladder(spec: dict):
    intervals, outputs = {}, {}
    for n in spec["moduli"]:
        t = perf_counter()
        outputs[n] = cli.analyze_report(n)
        intervals[str(n)] = (t, perf_counter())
    json_bytes = sum(len(json.dumps(report, indent=2)) + 1 for report, _ in outputs.values())
    return intervals, outputs, json_bytes


def _certify_scale(n: int) -> dict:
    g = graph.build_graph(n)
    srg = regularity.check_strongly_regular(g)
    arr = regularity.intersection_array(g)
    grp = symmetries.claimed_aut_group(n)
    return {
        "srg": (srg.v, srg.k, srg.lam, srg.mu),
        "array": (list(arr.b), list(arr.c), arr.diameter),
        "order": grp.order(),
        "transversals": grp.transversal_sizes(),
        "stabilizer": grp.point_stabilizer(0).order(),
    }


def run_scale_certify(spec: dict):
    intervals, outputs = {}, {}
    for unit in spec["units"]:
        t = perf_counter()
        if isinstance(unit, int):
            outputs[unit] = _certify_scale(unit)
        else:
            outputs["graph6"] = formats.to_graph6(graph.build_graph(EXPORT_MODULUS))
        intervals[str(unit)] = (t, perf_counter())
    return intervals, outputs, 0


def run_verify_sweep(spec: dict):
    # The one hook of the untraced run: verify_range calls analyze_report
    # once per modulus, and timing those calls is the only way to see the
    # slowest modulus of a single CLI invocation.
    intervals = {}
    inner = cli.analyze_report

    def timed(n, with_oracle=False):
        t = perf_counter()
        result = inner(n, with_oracle=with_oracle)
        intervals[str(n)] = (t, perf_counter())
        return result

    out, err = io.StringIO(), io.StringIO()
    cli.analyze_report = timed
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(spec["argv"])
    finally:
        cli.analyze_report = inner
    text = out.getvalue()
    return intervals, {"code": code, "stdout": text}, len(text.encode())


RUNNERS = {
    "certify_ladder": run_certify_ladder,
    "scale_certify": run_scale_certify,
    "verify_sweep": run_verify_sweep,
}


# -- first principles ----------------------------------------------------

def phi(n: int) -> int:
    return sum(1 for u in range(1, n) if math.gcd(u, n) == 1)


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def expected(n: int) -> dict:
    k = 3 * n - 3
    return {
        "srg": (n * n, k, n, 6),
        "array": ([k, 2 * n - 4], [1, 6], 2),
        "order": 6 * n * n * phi(n),
        "stabilizer": 6 * phi(n),
        "transitivity": {
            "vertex_transitive": True,
            "edge_transitive": is_prime(n),
            "arc_transitive": is_prime(n),
            "distance_transitive": n == 5,
            "two_arc_transitive": False,
        },
        # Closed-form object counts: edges, arcs, ordered distance-2 pairs
        # and 2-arcs of the (n^2, k) graph.
        "objects": {
            "edges": n * n * k // 2,
            "arcs": n * n * k,
            "distance2_pairs": n * n * (n * n - k - 1),
            "two_arcs": n * n * k * (k - 1),
        },
    }


def graph6_length(vertices: int) -> int:
    header = 1 if vertices <= 62 else 4
    bits = vertices * (vertices - 1) // 2
    return header + (bits + 5) // 6


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


TRANSITIVITY_KEYS = ("vertex_transitive", "edge_transitive", "arc_transitive",
                     "distance_transitive", "two_arc_transitive")


def report_digest(report: dict) -> str:
    """Digest of the analyze report keys present at the seed revision."""
    tr = report["transitivity"]
    return digest({
        "srg_params": report["srg_params"],
        "intersection_array": report["intersection_array"],
        "claimed_group_order": report["claimed_group_order"],
        "stabilizer_order": report["stabilizer_order"],
        "transitivity": {
            **{key: tr[key] for key in TRANSITIVITY_KEYS},
            "witnesses": {key: tr["witnesses"][key]
                          for key in ("vertex", "edge", "arc", "distance", "two_arc")},
            "orbit_counts": {key: tr["orbit_counts"][key]
                             for key in ("edges", "arcs", "distance2_pairs", "two_arcs")},
        },
    })


def verify_digest(summary: dict) -> str:
    """Digest of the verify summary keys present at the seed revision."""
    rows = [{
        "n": row["n"],
        "claimed_group_order": row["claimed_group_order"],
        "transitivity": {key: row["transitivity"][key] for key in TRANSITIVITY_KEYS},
        "oracle": row["oracle"],
        "failed_checks": row["failed_checks"],
        "passed": row["passed"],
    } for row in summary["results"]]
    return digest({key: summary[key] for key in ("lo", "hi", "oracle_upto", "all_passed")}
                  | {"results": rows})


# -- checks --------------------------------------------------------------
# Each returns a list of (check name, passed).

def check_certify_ladder(spec: dict, outputs: dict):
    checks = []
    for n in spec["moduli"]:
        report, failures = outputs[n]
        exp = expected(n)
        tr = report["transitivity"]
        arr = report["intersection_array"]
        srg = report["srg_params"]
        checks += [
            (f"{n}: analyze_report failures", failures == []),
            (f"{n}: srg_params", (srg["v"], srg["k"], srg["lambda"], srg["mu"]) == exp["srg"]),
            (f"{n}: intersection_array", (arr["b"], arr["c"], arr["diameter"]) == exp["array"]),
            (f"{n}: claimed_group_order", report["claimed_group_order"] == exp["order"]),
            (f"{n}: stabilizer_order", report["stabilizer_order"] == exp["stabilizer"]),
            (f"{n}: transitivity", {key: tr[key] for key in TRANSITIVITY_KEYS}
             == exp["transitivity"]),
        ]
        for key, count in exp["objects"].items():
            checks.append((f"{n}: orbit sizes of {key} sum to {count}",
                           sum(tr["orbit_counts"][key]) == count))
        checks.append((f"{n}: report digest", report_digest(report) == REPORT_DIGESTS.get(n)))
    return checks


def check_scale_certify(spec: dict, outputs: dict):
    checks = []
    for n in (unit for unit in spec["units"] if isinstance(unit, int)):
        out, exp = outputs[n], expected(n)
        checks += [
            (f"{n}: srg parameters", out["srg"] == exp["srg"]),
            (f"{n}: intersection array", out["array"] == exp["array"]),
            (f"{n}: group order", out["order"] == exp["order"]),
            (f"{n}: stabilizer order", out["stabilizer"] == exp["stabilizer"]),
            (f"{n}: transversal product equals order",
             math.prod(out["transversals"]) == out["order"]),
        ]
    text = outputs["graph6"]
    m = EXPORT_MODULUS
    checks += [
        (f"graph6 {m}: length", len(text) == graph6_length(m * m)),
        (f"graph6 {m}: digest", digest(text) == GRAPH6_DIGEST),
    ]
    return checks


def check_verify_sweep(spec: dict, outputs: dict):
    checks = [("verify exit code", outputs["code"] == 0)]
    try:
        summary = json.loads(outputs["stdout"])
    except json.JSONDecodeError:
        return checks + [("verify JSON parses", False)]
    rows = summary["results"]
    checks += [
        ("verify all_passed", summary["all_passed"] is True),
        ("verify covers 4..H", [row["n"] for row in rows] == list(range(4, SWEEP_HI + 1))),
    ]
    for row in rows:
        n, exp = row["n"], expected(row["n"])
        checks += [
            (f"{n}: passed", row["passed"] and row["failed_checks"] == []),
            (f"{n}: claimed_group_order", row["claimed_group_order"] == exp["order"]),
            (f"{n}: transitivity", {key: row["transitivity"][key] for key in TRANSITIVITY_KEYS}
             == exp["transitivity"]),
        ]
        if n <= ORACLE_UPTO:
            checks.append((f"{n}: oracle count {ORACLE_COUNTS[n]}",
                           row["oracle"] == {"brute_order": ORACLE_COUNTS[n],
                                             "agreement": True}))
        else:
            checks.append((f"{n}: no oracle", row["oracle"] is None))
    checks.append(("verify digest", verify_digest(summary) == VERIFY_DIGEST))
    return checks


CHECKS = {
    "certify_ladder": check_certify_ladder,
    "scale_certify": check_scale_certify,
    "verify_sweep": check_verify_sweep,
}
