#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gates.

Feeds ``run.py`` a deliberately wrong census count and wrong committed
digests, and checks that each run reports a failure (``correct: false``, a
nonzero ``failed``, no metrics, exit code 1) instead of a timing.  A run
with the true expectations must pass and report every end-to-end metric.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORK = os.path.join(ROOT, ".perfbench_out", "selftest")


def run(workload: str, expected: dict) -> tuple[int, dict]:
    path = os.path.join(WORK, f"expected-{workload}.json")
    with open(path, "w") as fh:
        json.dump(expected, fh)
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", "0", "--expected", path],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def expect_failure(workload: str, expected: dict) -> None:
    code, result = run(workload, expected)
    assert code == 1, (workload, code, result)
    assert result["correct"] is False and result["failed"] >= 1, result
    assert result["metrics"] == {}, result
    print(f"ok: wrong expectation on {workload} reported {result['failed']} failed gates")


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(HERE, "expected.json")) as fh:
        good = json.load(fh)

    wrong_census = copy.deepcopy(good)
    wrong_census["census"][0]["trees"] += 1
    expect_failure("census", wrong_census)

    wrong_digests = copy.deepcopy(good)
    for stratum in wrong_digests["count_random"]["strata"]:
        for entry in stratum:
            entry["digest"] = "0" * 16
    expect_failure("count_random", wrong_digests)

    code, result = run("long_path", good)
    assert code == 0 and result["correct"] and result["failed"] == 0, result
    assert set(result["metrics"]) == {"job_s", "setup_s", "item_p50_ms", "item_tail_ms",
                                      "peak_rss_mb"}, result
    print("ok: true expectations pass and report every end-to-end metric")
    return 0


if __name__ == "__main__":
    sys.exit(main())
