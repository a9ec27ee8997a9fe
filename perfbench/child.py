"""One cold pass in a fresh interpreter.

A pass is one or more units.  Each unit imports treecount afresh (the first
in this new interpreter, later ones after dropping every treecount module),
so every unit starts with cold program state without ``clear_memo``,
``memo=`` or any other switch of the program.  Before the first item of a
unit and after every item it times ``reference_s``, a fixed loop that no
program change touches, so that ``run.py`` can scale each time to a fixed
host speed.  Prints a single JSON object: set-up time, per-item and job wall
times, the reference times around them, peak resident memory, gate counts
and, when traced, the raw layer numbers.  Started by ``run.py``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import tracing  # noqa: E402
import workloads  # noqa: E402


def fresh_treecount():
    """Import treecount with no state left from an earlier import."""
    for name in [m for m in sys.modules if m.split(".")[0] == "treecount"]:
        del sys.modules[name]
    gc.collect()
    import treecount
    import treecount.cli  # noqa: F401  (its import cost belongs to set-up)

    if not os.path.abspath(treecount.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported treecount from {treecount.__file__}, not {SRC}")
    return treecount


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs now.

    Dict, tuple and integer work like the program's own, on a table of about
    a megabyte: on the tuning host this tracked the program's slowdowns
    better than a smaller table (which misses the cache contention) or a much
    larger one.  The collector is off, so the program's heap left behind
    cannot slow it.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(40000):
            key = (i * 7919) % 20011
            table[key] = table.get(key, 0) + (i & 7)
        sorted(table.items())
        return time.perf_counter() - start
    finally:
        gc.enable()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--expected", required=True)
    parser.add_argument("--spans-out")
    parser.add_argument("--env-only", action="store_true")
    args = parser.parse_args()

    if args.env_only:
        fresh_treecount()
        import numpy

        print(json.dumps({"numpy": numpy.__version__, "python": sys.version.split()[0]}))
        return 0
    with open(args.expected) as fh:
        expected = json.load(fh)

    setup_s = setup_ref_s = job_s = None
    item_s, item_ref_s, extra, layers, spans = [], [], [], [], []
    gates = workloads.Gates()
    for index in range(workloads.units(args.workload, expected)):
        tc = fresh_treecount()
        job = workloads.BUILDERS[args.workload](tc, args.seed, expected, index)
        if setup_s is None:
            setup_s, job_s = time.perf_counter() - _T0, 0.0
        before = reference_s()
        if setup_ref_s is None:
            setup_ref_s = before
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        results = []
        try:
            for _, call in job.items:
                a = time.perf_counter()
                results.append(call())
                item_s.append(time.perf_counter() - a)
                job_s += item_s[-1]
                after = reference_s()
                item_ref_s.append((before + after) / 2)
                before = after
        finally:
            if tracer:
                tracer.uninstall()
        extra.append(job.check(results, gates))
        if tracer:
            layers.append({**tracer.raw_layers(), **job.computed})
            spans.append(tracer.span_rows())
        del tc, job, results, tracer  # frees this unit's program state
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "job_s": job_s,
        "item_s": item_s,
        "item_ref_s": item_ref_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "messages": gates.messages,
        "extra": workloads.add_up(extra),
    }
    if args.trace:
        out["layers"] = workloads.add_up(layers)
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"fields": ["name", "start_s", "end_s", "parent"], "units": spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
