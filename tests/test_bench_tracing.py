"""The names the benchmark's traced run patches all exist in the package.

bench/tracing.py wraps functions by name on the modules that look them up
at call time; a renamed or moved function makes its install raise
KeyError.  This runs install and unpatch on the package as it stands.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_finds_every_patch_point_and_unpatch_restores_it():
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._restore)
    finally:
        tracer.unpatch()
    names = {f"{owner.__name__}.{attr}" for owner, attr, _ in patched}
    assert len(patched) == len(names) == 26
    assert {"cayleysrg.transitivity.check_graph_automorphism",
            "cayleysrg.symmetries.check_graph_automorphism",
            "cayleysrg.symmetries.build_graph",
            "cayleysrg.cli.classify_action",
            "PermutationGroup.from_generators"} <= names
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
