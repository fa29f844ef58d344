"""Benchmark of the cayleysrg verifier: one workload, one seed, one run.

    python3 bench/run.py --workload certify_ladder --seed 0 --seconds 36 --trace 0

Run from the root of a checkout.  Every repetition runs in a fresh
interpreter (bench/child.py) with PYTHONPATH=src and one BLAS/OpenMP
thread, so each one pays for imports, caches and memory the way a CLI
invocation does.  Repetitions continue while another one is expected to
finish within --seconds (at least one runs).

With --trace 0 the result holds the end-to-end metrics, medians over the
repetitions.  With --trace 1 untraced and traced repetitions alternate;
the result holds the per-layer metrics of the traced ones (medians) and
the tracing overhead, and a layer table goes to stderr.  The last line of
stdout is always the JSON result; everything else goes to stderr, and a
copy of the result with run metadata goes to bench/out/.

Exit status: 0 when every check passed, 1 when a check failed or a
repetition crashed, 2 when the checkout has no package source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("certify_ladder", "scale_certify", "verify_sweep")
SETUP_SAMPLES = 10
CHILD_TIMEOUT_S = 150
END_TO_END = {"wall_s": "s", "slowest_modulus_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], env: dict) -> tuple[dict | None, float, str]:
    """Run child.py once; return its JSON line, its start time and stderr."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, started, f"child timed out after {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, started, proc.stderr
    return json.loads(lines[-1]), started, proc.stderr


def metadata(numpy_version: str) -> dict:
    git = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git = None
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "git_revision": git,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def print_layer_table(layers: dict) -> None:
    wall = layers["trace.wall_s"]
    print(f"traced wall_s {wall:.4f} (raw)   tracing overhead "
          f"{layers['trace.overhead_s']:+.4f} s "
          f"(normalised, traced minus untraced)", file=sys.stderr)
    print(f"{'layer':<14}{'self_s':>10}{'share':>8}", file=sys.stderr)
    total = 0.0
    for key in sorted(k for k in layers if k.endswith(".self_s")):
        total += layers[key]
        share = layers[key] / wall if wall else 0.0
        print(f"{key[:-7]:<14}{layers[key]:>10.4f}{share:>8.1%}", file=sys.stderr)
    un = layers["trace.unattributed_s"]
    print(f"{'(no span)':<14}{un:>10.4f}{(un / wall if wall else 0.0):>8.1%}", file=sys.stderr)
    print(f"{'sum':<14}{total + un:>10.4f}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cayleysrg" / "__init__.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # One untimed import writes the bytecode cache, as an installed package has.
    warm, _, err = spawn(["--setup-only"], env)
    if warm is None:
        print(err, file=sys.stderr)
        return 1
    meta = metadata(warm["numpy"])
    print("meta " + json.dumps(meta), file=sys.stderr)
    setup_samples = []
    for _ in range(SETUP_SAMPLES):
        res, started, err = spawn(["--setup-only"], env)
        if res is None:
            print(err, file=sys.stderr)
            return 1
        setup_samples.append((res["setup_done"] - started) * res["setup_scale"])

    plain, traced, failed = [], [], []
    attempted = 0
    begin = time.monotonic()
    while True:
        tracing = args.trace == 1 and len(traced) < len(plain)
        rep = len(plain) + len(traced)
        child_args = ["--workload", args.workload, "--seed", str(args.seed),
                      "--trace", "1" if tracing else "0"]
        if tracing:
            child_args += ["--spans-out", str(OUT / f"spans-{tag}-rep{rep}.json")]
        res, started, err = spawn(child_args, env)
        attempted += 1 if res is None else res["attempted"]
        if res is None:
            failed.append(f"repetition {rep} did not finish")
            print(err[-4000:], file=sys.stderr)
            break
        failed += [f"repetition {rep}: {name}" for name in res["failed"]]
        setup_samples.append((res["setup_done"] - started) * res["setup_scale"])
        (traced if tracing else plain).append(res)
        elapsed = time.monotonic() - begin
        per_rep = elapsed / (len(plain) + len(traced))
        enough = plain and (args.trace == 0 or traced)
        if enough and elapsed + per_rep > args.seconds:
            break

    for name in failed:
        print(f"FAILED {name}", file=sys.stderr)
    if plain:
        print(f"inputs {json.dumps(plain[0]['inputs'])}", file=sys.stderr)
    print(f"{len(plain)} untraced and {len(traced)} traced repetitions, "
          f"{attempted} checks, failure_share {len(failed) / max(attempted, 1):.4f}",
          file=sys.stderr)

    metrics = {}
    if plain and (args.trace == 0 or traced):
        walls = [r["wall_s"] for r in plain]
        if args.trace == 0:
            values = {
                "wall_s": statistics.median(walls),
                "slowest_modulus_s": statistics.median(max(r["unit_s"].values()) for r in plain),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
                "setup_s": statistics.median(setup_samples),
            }
            for name, unit in END_TO_END.items():
                metrics[name] = {"value": values[name], "unit": unit}
            for r in plain:
                units = ", ".join(f"{k} {v:.3f}" for k, v in r["unit_s"].items())
                print(f"wall_s {r['wall_s']:.3f} (raw {r['raw_wall_s']:.3f})  "
                      f"peak_rss_mb {r['peak_rss_mb']:.1f}  [{units}]", file=sys.stderr)
        else:
            layers = {key: statistics.median(r["layers"][key] for r in traced)
                      for key in traced[0]["layers"]}
            # The overhead compares normalised walls; the layer table is raw.
            untraced = statistics.median(walls)
            layers["trace.untraced_wall_s"] = untraced
            layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - untraced
            print_layer_table(layers)
            for name, value in layers.items():
                metrics[name] = {"value": value, "unit": unit_of(name)}

    result = {
        "correct": not failed and bool(metrics),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"meta": meta, "inputs": plain[0]["inputs"] if plain else None,
         "setup_samples": setup_samples, "failures": failed,
         "repetitions": [{key: r[key] for key in ("wall_s", "raw_wall_s", "unit_s", "raw_unit_s",
                                                  "peak_rss_mb", "probe_samples")}
                         for r in plain],
         **result}, indent=2))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "graph.bitset_bits":
        return "bit"
    if name.endswith("_bytes"):
        return "byte"
    if name == "symmetries.checks_per_generator":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
