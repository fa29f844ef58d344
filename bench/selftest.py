"""Self-test of the benchmark's own counting, tracing and pinned values.

    python3 bench/selftest.py

Runs in a few seconds on small moduli and exits non-zero on the first
failed check.  It is not part of the package's test suite.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import cayleysrg.cli as cli  # noqa: E402
import cayleysrg.formats as formats  # noqa: E402
import cayleysrg.graph as graph  # noqa: E402
import cayleysrg.symmetries as symmetries  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from tracing import LAYERS, Tracer, install, layer_metrics  # noqa: E402


def test_orbit_sizes_sum_to_closed_form_counts():
    for n in range(4, 10):
        tracer = Tracer()
        install(tracer)
        try:
            report, failures = cli.analyze_report(n)
        finally:
            tracer.unpatch()
        assert failures == [], (n, failures)
        objects = workloads.expected(n)["objects"]
        for key, count in objects.items():
            assert sum(report["transitivity"]["orbit_counts"][key]) == count, (n, key)
        m = layer_metrics(tracer, 1.0, 0)
        assert m["transitivity.objects.vertex"] == n * n
        assert m["transitivity.objects.edge"] == objects["edges"]
        assert m["transitivity.objects.arc"] == objects["arcs"]
        assert m["transitivity.objects.distance"] == n ** 4
        assert m["transitivity.objects.two_arc"] == objects["two_arcs"]
        assert m["transitivity.orbits.edge"] == len(report["transitivity"]["orbit_counts"]["edges"])
        assert m["transitivity.orbits.vertex"] == 1
        assert m["symmetries.generators"] == workloads.phi(n) + 4
        assert m["graph.bitset_bits"] == m["graph.build_graph_calls"] * n ** 4


def test_transversal_product_equals_order():
    for n in range(4, 13):
        grp = symmetries.claimed_aut_group(n)
        assert math.prod(grp.transversal_sizes()) == grp.order() == 6 * n * n * workloads.phi(n)
        stab = grp.point_stabilizer(0)
        assert math.prod(stab.transversal_sizes()) == stab.order() == 6 * workloads.phi(n)


def test_layer_self_times_add_up_to_wall():
    import time
    originals = {name: getattr(cli, name) for name in ("analyze_report", "build_graph")}
    tracer = Tracer()
    install(tracer)
    start = time.perf_counter()
    try:
        cli.analyze_report(7, with_oracle=True)
    finally:
        wall = time.perf_counter() - start
        tracer.unpatch()
    assert all(getattr(cli, name) is fn for name, fn in originals.items())
    m = layer_metrics(tracer, wall, 0)
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.unattributed_s"]
    assert abs(total - wall) < 1e-9, (total, wall)
    assert m["search.automorphisms"] == 1764
    assert 0 <= m["trace.unattributed_s"] < wall


def _graph6_first_principles(m: int) -> str:
    """graph6 of the modulus-m graph, from the adjacency rule alone: two
    vertices are adjacent when their difference has a zero coordinate or
    equal coordinates."""
    v = m * m
    a, b = np.divmod(np.arange(v), m)
    columns = []
    for j in range(1, v):
        da, db = (a[:j] - a[j]) % m, (b[:j] - b[j]) % m
        columns.append(((da == 0) | (db == 0) | (da == db)).astype(np.uint8))
    bits = np.concatenate(columns)
    bits = np.concatenate([bits, np.zeros(-bits.size % 6, np.uint8)])
    body = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1]) + 63
    head = chr(63 + v) if v <= 62 else "~" + "".join(chr(63 + (v >> s & 63)) for s in (12, 6, 0))
    return head + body.astype(np.uint8).tobytes().decode("ascii")


def test_pinned_values():
    for m in (4, 7, 9):
        assert formats.to_graph6(graph.build_graph(m)) == _graph6_first_principles(m)
    m = workloads.EXPORT_MODULUS
    text = _graph6_first_principles(m)
    assert len(text) == workloads.graph6_length(m * m)
    assert workloads.digest(text) == workloads.GRAPH6_DIGEST
    for moduli in workloads.LADDER_SETS:
        assert all(n in workloads.REPORT_DIGESTS for n in moduli), moduli
    for n, count in workloads.ORACLE_COUNTS.items():
        assert count == 6 * n * n * workloads.phi(n)


def test_speed_normalisation():
    probe = SpeedProbe()
    probe.samples = [(1.0, 0.002), (2.0, 0.004), (5.0, 0.010)]
    raw, norm = probe.normalise(0.5, 3.0)
    assert math.isclose(raw, 2.5 - 0.006)
    assert math.isclose(norm, raw * REFERENCE_S / 0.003)
    raw, norm = probe.normalise(3.0, 3.5)
    assert math.isclose(norm, raw * REFERENCE_S / (0.016 / 3))
    with SpeedProbe() as probe:
        cli.analyze_report(9)
    assert probe.samples


def main() -> int:
    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for fn in tests:
        fn()
        print(f"ok   {fn.__name__}")
    print(f"{len(tests)} self-test checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
