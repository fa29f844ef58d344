"""Spans and counts recorded from outside the package.

The traced run replaces public names at each layer boundary with wrappers
from this file.  A name is patched on the module that looks it up at call
time (for example ``cayleysrg.cli.build_graph``, which ``analyze_report``
calls), so the package source is never edited.  Each wrapper appends one
span ``[name, start, end, parent]`` to an in-memory list and bumps a call
counter; an optional ``on_result`` callback turns the return value into
exact counts.  Nothing is written until the run ends.

A span's self time is its duration minus the durations of its direct
children.  A layer's self time is the sum over its spans, the layer being
the part of the span name before the first dot.  Whatever no root span
covers is reported as unattributed time, so the layer table always adds
up to the traced wall time.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "transitivity", "symmetries", "bsgs", "regularity", "graph",
          "formats", "search", "core")
LEVELS = ("vertex", "edge", "arc", "distance", "two_arc")


class Tracer:
    """Span list, call counters and counts for one traced repetition."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count_as: str | None = None, on_result=None):
        """Return fn wrapped so that every call records a span called name."""
        key = count_as or name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            self.calls[key] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        """Replace owner.attr (a module function, or a method or classmethod
        of a class) by a traced wrapper."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, **kw))
        else:
            replacement = self.wrap(name, original, **kw)
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- derived numbers ------------------------------------------------

    def inclusive(self) -> dict[str, float]:
        """Busy time per span name, counting only the outermost span when a
        name nests inside itself."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[name] += end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Self time per layer."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for (name, start, end, _), kids in zip(self.spans, child_time):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - kids
        return out

    def covered(self) -> float:
        """Time covered by root spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


# -- count callbacks ------------------------------------------------------

def _level_counts(level: str):
    def record(counts, result):
        if level == "distance":
            sizes = [s for per_d in result.orbit_sizes_by_distance for s in per_d]
        else:
            sizes = result.orbit_sizes
        counts[f"transitivity.objects.{level}"] += sum(sizes)
        counts[f"transitivity.orbits.{level}"] += len(sizes)
    return record


def _group_counts(counts, grp):
    counts["symmetries.generators"] += len(grp.generators)
    counts["bsgs.base_len"] += len(grp.base)
    counts["bsgs.strong_generators"] += len(grp.strong_generators)
    counts["bsgs.transversal_total"] += sum(grp.transversal_sizes())


def _graph_counts(counts, g):
    counts["graph.bitset_bits"] += g.vertex_count ** 2


def _srg_counts(counts, srg):
    counts["regularity.pairs_checked"] += srg.v * (srg.v - 1) // 2


def _search_counts(counts, found):
    counts["search.automorphisms"] += len(found)


def _graph6_counts(counts, text):
    counts["formats.graph6_bytes"] += len(text)


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the workloads cross."""
    import cayleysrg.cli as cli
    import cayleysrg.formats as formats
    import cayleysrg.graph as graph
    import cayleysrg.regularity as regularity
    import cayleysrg.symmetries as symmetries
    import cayleysrg.transitivity as transitivity
    from cayleysrg.bsgs import PermutationGroup

    p = tracer.patch
    p(cli, "analyze_report", "cli.analyze_report")
    p(cli, "verify_range", "cli.verify_range")
    for mod in (cli, graph, symmetries):
        p(mod, "build_graph", "graph.build_graph", on_result=_graph_counts)
    for mod in (cli, regularity):
        p(mod, "check_strongly_regular", "regularity.check_strongly_regular",
          on_result=_srg_counts)
        p(mod, "intersection_array", "regularity.intersection_array")
    for mod in (cli, symmetries):
        p(mod, "claimed_aut_group", "symmetries.claimed_aut_group",
          on_result=_group_counts)
    p(symmetries, "check_graph_automorphism", "symmetries.check_graph_automorphism",
      count_as="symmetries.factory_checks")
    p(transitivity, "check_graph_automorphism", "symmetries.check_graph_automorphism",
      count_as="transitivity.generator_checks")
    p(symmetries, "perm_from_pair_map", "core.perm_from_pair_map")
    p(cli, "classify_action", "transitivity.classify_action")
    for level in LEVELS:
        p(transitivity, f"is_{level}_transitive", f"transitivity.{level}",
          on_result=_level_counts(level))
    p(PermutationGroup, "from_generators", "bsgs.from_generators")
    p(PermutationGroup, "point_stabilizer", "bsgs.point_stabilizer")
    p(PermutationGroup, "contains", "bsgs.contains")
    p(cli, "enumerate_automorphisms", "search.enumerate_automorphisms",
      on_result=_search_counts)
    for mod in (cli, formats):
        p(mod, "to_graph6", "formats.to_graph6", on_result=_graph6_counts)


def layer_metrics(tracer: Tracer, wall: float, json_bytes: int) -> dict[str, float]:
    """Every per-layer metric of one traced repetition, by name."""
    inc = tracer.inclusive()
    selfs = tracer.self_times()
    calls = tracer.calls
    counts = tracer.counts
    m: dict[str, float] = {}
    for level in LEVELS:
        m[f"transitivity.{level}_s"] = inc[f"transitivity.{level}"]
    m["transitivity.self_s"] = selfs["transitivity"]
    for level in LEVELS:
        m[f"transitivity.objects.{level}"] = counts[f"transitivity.objects.{level}"]
        m[f"transitivity.orbits.{level}"] = counts[f"transitivity.orbits.{level}"]
    objects = sum(counts[f"transitivity.objects.{level}"] for level in LEVELS)
    m["transitivity.objects_per_s"] = (
        objects / selfs["transitivity"] if selfs["transitivity"] > 0 else 0.0
    )
    m["transitivity.generator_checks"] = calls["transitivity.generator_checks"]

    m["symmetries.claimed_aut_group_s"] = inc["symmetries.claimed_aut_group"]
    m["symmetries.self_s"] = selfs["symmetries"]
    m["symmetries.check_graph_automorphism_s"] = inc["symmetries.check_graph_automorphism"]
    m["symmetries.factory_checks"] = calls["symmetries.factory_checks"]
    m["symmetries.generators"] = counts["symmetries.generators"]
    # Every automorphism check of a generator, in the factory or before an
    # orbit computation, per generator of the claimed groups.
    checks = calls["symmetries.factory_checks"] + calls["transitivity.generator_checks"]
    m["symmetries.checks_per_generator"] = (
        checks / counts["symmetries.generators"] if counts["symmetries.generators"] else 0.0
    )

    for fn in ("from_generators", "point_stabilizer", "contains"):
        m[f"bsgs.{fn}_s"] = inc[f"bsgs.{fn}"]
    m["bsgs.contains_calls"] = calls["bsgs.contains"]
    for key in ("base_len", "strong_generators", "transversal_total"):
        m[f"bsgs.{key}"] = counts[f"bsgs.{key}"]
    m["bsgs.self_s"] = selfs["bsgs"]

    for fn in ("check_strongly_regular", "intersection_array"):
        m[f"regularity.{fn}_s"] = inc[f"regularity.{fn}"]
    m["regularity.pairs_checked"] = counts["regularity.pairs_checked"]
    m["regularity.self_s"] = selfs["regularity"]

    m["graph.build_graph_s"] = inc["graph.build_graph"]
    m["graph.build_graph_calls"] = calls["graph.build_graph"]
    m["graph.bitset_bits"] = counts["graph.bitset_bits"]
    m["graph.self_s"] = selfs["graph"]

    m["formats.to_graph6_s"] = inc["formats.to_graph6"]
    m["formats.graph6_bytes"] = counts["formats.graph6_bytes"]
    m["formats.self_s"] = selfs["formats"]

    m["search.enumerate_automorphisms_s"] = inc["search.enumerate_automorphisms"]
    m["search.automorphisms"] = counts["search.automorphisms"]
    m["search.self_s"] = selfs["search"]

    m["core.perm_from_pair_map_s"] = inc["core.perm_from_pair_map"]
    m["core.perm_from_pair_map_calls"] = calls["core.perm_from_pair_map"]
    m["core.self_s"] = selfs["core"]

    m["cli.self_s"] = selfs["cli"]
    m["cli.json_bytes"] = json_bytes

    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - tracer.covered()
    m["trace.spans"] = len(tracer.spans)
    return m
