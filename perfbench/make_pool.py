#!/usr/bin/env python3
"""Regenerate the ``count_random`` tree pool in ``expected.json``.

Draws random Pruefer trees with n in [48, 72] from ``POOL_SEED``, with a
random generic/versal choice per red-green component (all versal for about
a quarter of them).  Counts every tree once per round, each on a fresh
import of treecount as a benchmark pass does, in ``ROUNDS`` rounds run one
after the other in fresh interpreters.  A tree's cost is its fastest round:
the host's slow episodes last seconds and only ever add time, and rounds a
minute apart rarely all fall into one.  It sorts the trees by that cost into
strata and keeps from every stratum the ``PER_STRATUM`` trees of closest
cost, so that a run, which draws one tree per stratum from its seed, does
about the same work whatever the seed.  The digests are the committed expected results.

Run it only when the pool itself must change (the digests are computed by
the program as it is now), from the repository root:

    python3 perfbench/make_pool.py
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
sys.path.insert(0, HERE)

from workloads import digest, prufer_edges  # noqa: E402

POOL_SEED = 20140303
N_RANGE = (48, 72)
CANDIDATES = 180
STRATA = 12
PER_STRATUM = 3
ROUNDS = 7


def count_round() -> None:
    """Child mode: count every candidate read from stdin, each cold.

    Prints one JSON list of ``{"time_s", "digest"}``, in input order.
    """
    from child import fresh_treecount

    out = []
    for cand in json.load(sys.stdin):
        tc = fresh_treecount()
        n = cand["n"]
        t = tc.Tree(n, tuple(prufer_edges(cand["prufer"], n)))
        phi = {int(k): v for k, v in cand["phi"].items()} or None
        start = time.perf_counter()
        p = tc.count_polynomial(t, phi)
        out.append({"time_s": time.perf_counter() - start, "digest": digest(p.coeffs)})
    print(json.dumps(out))


def candidates() -> list[dict]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import treecount

    rng = random.Random(POOL_SEED)
    out = []
    for i in range(CANDIDATES):
        n = rng.randint(*N_RANGE)
        prufer = [rng.randrange(n) for _ in range(n - 2)]
        t = treecount.Tree(n, tuple(prufer_edges(prufer, n)))
        part = treecount.red_green_components(t, treecount.canonical_coloring(t))
        # a quarter all-versal, so the independent-set gates run on most seeds
        all_versal = rng.random() < 0.25
        phi = {str(c.min_vertex): "versal" if all_versal else rng.choice(("generic", "versal"))
               for c in part}
        out.append({"id": i, "n": n, "prufer": prufer, "phi": phi})
    return out


def main() -> int:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0")
    pool = candidates()
    rounds = []
    for r in range(ROUNDS):
        proc = subprocess.run([sys.executable, __file__, "--round"], input=json.dumps(pool),
                              env=env, capture_output=True, text=True, check=True)
        rounds.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"round {r + 1}/{ROUNDS}: {sum(x['time_s'] for x in rounds[-1]):.1f} s",
              file=sys.stderr)
    for cand, runs in zip(pool, zip(*rounds)):
        if len({r["digest"] for r in runs}) != 1:
            raise SystemExit(f"candidate {cand['id']}: polynomial differs between runs")
        cand["digest"] = runs[0]["digest"]
        cand["cost_s"] = round(min(r["time_s"] for r in runs), 4)
    pool.sort(key=lambda c: c["cost_s"])
    size = len(pool) // STRATA
    strata = []
    for k in range(STRATA):
        group = pool[k * size:(k + 1) * size]
        first = min(range(len(group) - PER_STRATUM + 1),
                    key=lambda i: group[i + PER_STRATUM - 1]["cost_s"] / group[i]["cost_s"])
        strata.append(sorted(group[first:first + PER_STRATUM], key=lambda c: c["id"]))
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    expected["count_random"] = {
        "pool_seed": POOL_SEED,
        "n_range": list(N_RANGE),
        "candidates": CANDIDATES,
        "strata": strata,
    }
    write_expected(expected)
    return 0


def write_expected(expected: dict) -> None:
    """One line per census class and per pool entry, for readable diffs."""
    def rows(items: list, indent: str) -> str:
        return "[\n" + ",\n".join(indent + json.dumps(x) for x in items) + "]"

    pool = expected["count_random"]
    head = {k: v for k, v in pool.items() if k != "strata"}
    strata = ",\n  ".join(rows(s, "   ") for s in pool["strata"])
    text = (
        "{\n"
        f' "census": {rows(expected["census"], "  ")},\n'
        f' "oracle_sweep": {json.dumps(expected["oracle_sweep"])},\n'
        f' "long_path": {json.dumps(expected["long_path"])},\n'
        f' "count_random": {json.dumps(head)[:-1]}, "strata": [\n  {strata}]}}\n'
        "}\n"
    )
    assert json.loads(text) == expected
    with open(EXPECTED, "w") as fh:
        fh.write(text)


if __name__ == "__main__":
    if sys.argv[1:] == ["--round"]:
        count_round()
        sys.exit(0)
    sys.exit(main())
