#!/usr/bin/env python3
"""treecount benchmark: end-to-end jobs and, in a traced run, per-layer numbers.

Usage (from the repository root):

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, untraced

Each pass runs in a fresh interpreter (``child.py``), so every pass starts
cold, the way a command-line invocation does; ``count_random`` also imports
treecount afresh for each of its trees, so each is counted from a cold memo.  Passes
repeat for about ``--seconds``.  Times are scaled to a fixed host speed
(see ``REFERENCE_S``) and are medians over passes.  With
``--trace 1`` untraced and traced passes alternate: the traced ones give the
per-layer metrics, and the difference of the job medians is the tracing
overhead.  Every pass checks its results; a failed check ends the run with
``correct: false``, no metrics and exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with sample counts, percentiles, gate messages and the environment, goes to
``.perfbench_out/`` at the repository root, next to the span dumps of the
traced passes.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 20140303
MIN_PASSES = 2
RUN_LIMIT_S = 170  # the whole run must end within this
# The host this was tuned on (2-vCPU Xeon VM, shared) runs everything, CPU
# time included, up to 1.6 times slower for stretches longer than a run, so
# raw wall times of the same code spread past any useful bound.  Each pass
# times child.reference_s, a fixed loop, around every timed call, and each
# time is reported as wall time x REFERENCE_S / the reference time around it:
# seconds at the speed at which that loop takes REFERENCE_S, the host's
# typical speed.  Program changes cannot move the loop; raw wall times stay
# in the record.
REFERENCE_S = 0.016
# every child sees one BLAS/OpenMP thread and a fixed hash seed
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
END_TO_END = ("job_s", "setup_s", "item_p50_ms", "item_tail_ms", "peak_rss_mb")
PER_LAYER = {
    "trees.enumerate_free_trees_s": "s",
    "trees.gen_yield_ratio": "ratio",
    "trees.canonical_key_s": "s",
    "trees.canonical_key_calls": "count",
    "trees.remove_vertices_s": "s",
    "trees.remove_vertices_calls": "count",
    "trees.tree_builds": "count",
    "coloring.canonical_coloring_s": "s",
    "coloring.canonical_coloring_calls": "count",
    "counting.self_s": "s",
    "counting.memo_states": "count",
    "counting.memo_hit_ratio": "ratio",
    "polynomials.mul_s": "s",
    "polynomials.mul_calls": "count",
    "polynomials.add_s": "s",
    "fqoracle.count_points_s": "s",
    "fqoracle.count_points_calls": "count",
    "fqoracle.grid_points": "count",
    "fqoracle.skipped_ratio": "ratio",
    "groupoid.genericity_check_s": "s",
    "groupoid.genericity_check_calls": "count",
    "matchings.maximum_matching_s": "s",
    "trace.overhead_s": "s",
}


class ChildError(RuntimeError):
    """A child process crashed, timed out or printed no result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    return env


def run_child(args: list[str], timeout: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"child {args} timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_pass(workload: str, seed: int, trace: int, expected: str, deadline: float) -> dict:
    """One full pass in a fresh interpreter."""
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(trace),
            "--expected", expected]
    if trace:
        args += ["--spans-out", os.path.join(OUT, f"spans-{workload}-{seed}.json")]
    out = run_child(args, deadline - time.monotonic())
    out["trace"] = trace
    if trace:
        out["layers"] = layer_metrics(out["layers"], out["extra"])
    return out


def layer_metrics(raw: dict[str, float], extra: dict[str, float]) -> dict[str, float]:
    """Named per-layer metrics of one traced pass, ratios formed last."""
    out = {k: raw.get(k, 0) for k in PER_LAYER if k in raw}
    yields, key_calls = raw["trees.yields"], raw["trees.enumeration_key_calls"]
    # with no canonical_key call during enumeration, no yield was wasted
    out["trees.gen_yield_ratio"] = yields / key_calls if key_calls else float(yields > 0)
    lookups = raw["counting.memo_lookups"]
    out["counting.memo_hit_ratio"] = 1 - raw["counting.memo_states"] / lookups if lookups else 0.0
    checks = extra.get("fqoracle.prime_checks", 0)
    skipped = extra.get("fqoracle.skipped_checks", 0)
    out["fqoracle.skipped_ratio"] = skipped / checks if checks else 0.0
    out["fqoracle.grid_points"] = raw.get("fqoracle.grid_points", 0)
    return out


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    Below 20 samples that percentile would lie under the median, so the
    maximum is given instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n >= 20:
        return xs[n - 11], f"p{100 * (n - 10) / n:.0f}"
    return xs[-1], "max"


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def stat(samples: list[float], unit: str, raw: list[float]) -> dict:
    value, label = tail(samples)
    return {"value": statistics.median(samples), "unit": unit, "samples": len(samples),
            "tail": value, "tail_label": label, "raw_median": statistics.median(raw)}


def scaled(seconds: float, reference: float) -> float:
    return seconds * REFERENCE_S / reference


def scaled_job_s(p: dict) -> float:
    return sum(map(scaled, p["item_s"], p["item_ref_s"]))


def measure(workload: str, seed: int, seconds: int, trace: int, expected: str) -> dict:
    """Repeat passes for about ``seconds``; stop at the first failed gate."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes = [run_pass(workload, seed, 0, expected, deadline)]
    typical = time.monotonic() - start
    while not passes[-1]["failed"] and time.monotonic() + typical < deadline and (
        len(passes) < MIN_PASSES or time.monotonic() + typical < start + seconds
    ):
        passes.append(run_pass(workload, seed, trace and len(passes) % 2, expected, deadline))
    return {"passes": passes, "wall_s": time.monotonic() - start}


def summarize(passes: list[dict]) -> dict:
    plain = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    # Every pass makes the same calls in the same order.  Each item's median
    # over passes filters out the host's short slow episodes item by item;
    # the job time is the sum of those medians, the item latencies are their
    # median and their 90th percentile.
    passes_ms = [[scaled(x, r) * 1000 for x, r in zip(p["item_s"], p["item_ref_s"])]
                 for p in plain]
    item_ms = [statistics.median(xs) for xs in zip(*passes_ms)]
    pooled_ms = [x for xs in passes_ms for x in xs]
    raw_ms = [x * 1000 for p in plain for x in p["item_s"]]
    rss = [p["peak_rss_mb"] for p in plain]
    e2e = {
        "job_s": {**stat([scaled_job_s(p) for p in plain], "s",
                         [p["job_s"] for p in plain]), "value": sum(item_ms) / 1000},
        "setup_s": stat([scaled(p["setup_s"], p["setup_ref_s"]) for p in plain], "s",
                        [p["setup_s"] for p in plain]),
        "item_p50_ms": {**stat(pooled_ms, "ms", raw_ms), "value": statistics.median(item_ms)},
        "item_tail_ms": {**stat(pooled_ms, "ms", raw_ms), "value": p90(item_ms)},
        "peak_rss_mb": stat(rss, "MB", rss),
    }
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    e2e["fail_ratio"] = {"value": failed / attempted, "unit": "ratio", "samples": attempted}
    out = {"end_to_end": e2e, "attempted": attempted, "failed": failed,
           "messages": [m for p in passes for m in p["messages"]][:50]}
    if traced:
        layers = {k: {"value": statistics.median(p["layers"][k] for p in traced),
                      "unit": PER_LAYER[k], "samples": len(traced)}
                  for k in PER_LAYER if k in traced[0]["layers"]}
        overhead = statistics.median(map(scaled_job_s, traced)) - statistics.median(
            map(scaled_job_s, plain))
        layers["trace.overhead_s"] = {"value": overhead, "unit": "s", "samples": len(traced)}
        out["per_layer"] = layers
    return out


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "child_env": CHILD_ENV,
        "git_commit": "unknown (not a git checkout)",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        if models:
            env["cpu_model"] = models[0]
    except OSError:
        pass
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            env["git_commit"] = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return env


def report_lines(workload: str, summary: dict) -> list[str]:
    lines = []
    for name, m in summary["end_to_end"].items():
        line = f"{workload:<13} {name:<13} {m['value']:.6g} {m['unit']}  ({m['samples']} samples"
        if "tail" in m:
            line += f"; their {m['tail_label']} is {m['tail']:.6g}"
        if m["unit"] != "MB" and "raw_median" in m:
            line += f"; unscaled wall-time median {m['raw_median']:.6g}"
        lines.append(line + ")")
    for name, m in summary.get("per_layer", {}).items():
        note = " computed from inputs" if name == "fqoracle.grid_points" else ""
        lines.append(f"{workload:<13} {name:<34} {m['value']:.6g} {m['unit']}  "
                     f"(median of {m['samples']} traced passes{note})")
    return lines + [f"{workload:<13} gate failed: {msg}" for msg in summary["messages"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=os.path.join(HERE, "expected.json"),
                        help="expected counts and digests (the self-test feeds wrong ones)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "treecount", "__init__.py")):
        print(f"no treecount sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = environment()
    versions = run_child(["--workload", "census", "--seed", "0", "--env-only",
                          "--expected", args.expected], 60)  # also warms bytecode caches
    env.update(versions)
    print(f"env: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} commit={env['git_commit']}")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for workload in names:
        try:
            run = measure(workload, args.seed, args.seconds, args.trace, args.expected)
            summary = summarize(run["passes"])
        except ChildError as exc:
            run = {"passes": []}
            summary = {"end_to_end": {}, "attempted": 1, "failed": 1, "messages": [str(exc)]}
        attempted += summary["attempted"]
        failed += summary["failed"]
        for line in report_lines(workload, summary):
            print(line)
        record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env, **summary, "passes": run["passes"]}
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(OUT, name), "w") as fh:
            json.dump(record, fh, indent=1)
        prefix = f"{workload}." if args.workload == "all" else ""
        chosen = summary.get("per_layer", {}) if args.trace else {
            k: summary["end_to_end"][k] for k in END_TO_END if k in summary["end_to_end"]}
        for name, m in chosen.items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
