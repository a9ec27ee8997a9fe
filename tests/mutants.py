"""Mutation checks of the fast paths: the free-tree walk, the census's
carried fold and its slot width, the kernel and its slot-sum check, the
weighing and its signed slots, and the φ assignments that
``verify --max-n`` sweeps.

Each mutant is one text rewrite of one file under ``src/``.  It is applied
to a temporary copy of the checkout (``src/``, ``tests/`` and
``pyproject.toml``), and its pytest subset runs there in one subprocess
with a timeout.  A mutant is killed when a test fails or the run times out,
and survives when every test passes.  The copy is first run once unmutated,
so a subset that fails on its own is not read as kills.

Run from the root of the checkout (standard library only)::

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones

The exit status is 0 when every mutant is killed but those listed as
equivalent, which must survive; 1 otherwise; 2 when a rewrite no longer
applies exactly once or the unmutated subset fails.  The file is not named
``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds per pytest run; every subset takes a few

WALK_TESTS = (
    "tests/test_trees.py::test_walk_reports_where_each_array_first_differs",
    "tests/test_trees.py::test_walk_pruned_on_deficiency_equals_filtered_walk",
    "tests/test_trees.py::test_walk_order_equals_slice_walk",
)
FOLD_TESTS = (
    "tests/test_counting.py::test_carried_size_vectors_equal_the_kernel",
    "tests/test_counting.py::test_census_matches_reference",
    "tests/test_counting.py::test_census_reports_are_pinned",
)
KERNEL_TESTS = (
    "tests/test_counting.py::test_base_cases",
    "tests/test_counting.py::test_count_matches_recursion_everywhere",
)
WEIGH_TESTS = (
    "tests/test_counting.py::test_batched_weighing_fixed_cases",
    "tests/test_counting.py::test_weigh_by_size_fixed_cases",
    "tests/test_counting.py::test_byte_slice_path_decodes_as_the_cast",
    "tests/test_counting.py::test_batched_weighing_matches_poly_arithmetic",
)
SWEEP_TESTS = (
    "tests/test_counting.py::test_resolution_matches_the_partition",
    "tests/test_cli.py::test_verify_max_n_sweeps_every_pair",
    "tests/test_cli_pins.py",
)


class Mutant(NamedTuple):
    path: str  # under src/treecount
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str | None = None  # why no test can kill it


MUTANTS = {
    # the position each array comes with (trees._free_tree_parents)
    "low-not-lowered-at-a-step": Mutant(
        "trees.py",
        "        if p < low:\n            low = p\n",
        "",
        WALK_TESTS + FOLD_TESTS,
    ),
    "low-lowered-to-p-plus-1": Mutant(
        "trees.py",
        "        if p < low:\n            low = p\n",
        "        if p < low:\n            low = p + 1\n",
        WALK_TESTS + FOLD_TESTS,
    ),
    "low-not-reset-at-a-yield": Mutant(
        "trees.py",
        "                yield parent[:], low\n                low = n\n",
        "                yield parent[:], low\n",
        WALK_TESTS + FOLD_TESTS,
    ),
    # the tail's start lowers ``read`` but not ``low``
    "low-not-lowered-on-the-deep-tail": Mutant(
        "trees.py",
        "            p = min(p, m)\n",
        "            read = min(read, m)\n",
        WALK_TESTS + FOLD_TESTS,
        equivalent=(
            "a deep tail starts before its step position in 1,440 of 50,559 cases "
            "at n = 18, but ``low`` is then already at or below its start: counted "
            "over every n <= 20 (the guard) and every deficiency, not proved, so "
            "the code lowers ``low`` there anyway, as it does ``read``"
        ),
    ),
    # the carried fold (counting._carried_size_vectors)
    "fold-restores-the-chain-one-past-low": Mutant(
        "counting.py",
        "        chain = chain_at[low]\n",
        "        chain = chain_at[low + 1]\n",
        FOLD_TESTS,
    ),
    # the deficiency count of the walk
    "charged-only-past-the-second-free-child": Mutant(
        "trees.py",
        "                            if g:\n",
        "                            if g > 1:\n",
        WALK_TESTS + FOLD_TESTS,
    ),
    "free-child-not-passed-to-its-parent": Mutant(
        "trees.py",
        "                            chain = (g + 1, rest)  # free for its parent\n",
        "                            chain = (g, rest)\n",
        WALK_TESTS + FOLD_TESTS,
    ),
    # the unimodal-generic close step and root read
    "red-rdown-seeded-0": Mutant(
        "counting.py",
        "    return (1, 1, 1, 1, 0, 1, chain)\n",
        "    return (1, 1, 1, 1, 0, 0, chain)\n",
        FOLD_TESTS,
    ),
    "generic-root-keeps-a-red-root-s-i1": Mutant(
        "counting.py",
        "    return out + down + ((inn - rdown) << shift), wo + wi\n",
        "    return out + down + (inn << shift), wo + wi\n",
        FOLD_TESTS,
    ),
    # the kernel (counting._fold_sets) and the slot-sum check of its sizes
    "green-keeps-two-children-in-i1": Mutant(
        "counting.py",
        "            down[p] = down[p] * keep + a0 * i1\n",
        "            down[p] = down[p] * (keep + i1) + a0 * i1\n",
        KERNEL_TESTS,
    ),
    "slot-sum-check-loses-not-generic": Mutant(
        "counting.py",
        "    if found > total or (found != total and not generic):\n",
        "    if found > total or found != total:\n",
        KERNEL_TESTS + FOLD_TESTS,
    ),
    # the weighing (counting._weigh_by_size) and its slots
    "trailing-factor-from-the-first-vector": Mutant(
        "counting.py",
        "    top = len(largest) - 1\n",
        "    top = len(vectors[0]) - 1\n",
        WEIGH_TESTS + FOLD_TESTS,
    ),
    "slot-width-without-its-sign-bit": Mutant(
        "counting.py",
        "    width = (bound.bit_length() + 8) // 8\n",
        "    width = (bound.bit_length() + 7) // 8\n",
        WEIGH_TESTS + FOLD_TESTS,
    ),
    "weighing-read-without-the-xor": Mutant(
        "counting.py",
        "    coeffs = _unpack((acc + bias) ^ bias, width, signed=True)\n",
        "    coeffs = _unpack(acc + bias, width, signed=True)\n",
        WEIGH_TESTS + FOLD_TESTS,
    ),
    # the one reader (counting._unpack), signed for the weighing
    "signed-table-reads-2-byte-slots-unsigned": Mutant(
        "counting.py",
        "cast(fmt.lower() if signed else fmt)",
        "cast(fmt.lower() if signed and width != 2 else fmt)",
        WEIGH_TESTS + FOLD_TESTS,
    ),
    "signed-slices-read-unsigned": Mutant(
        "counting.py",
        '        int.from_bytes(raw[i : i + width], "little", signed=signed)\n',
        '        int.from_bytes(raw[i : i + width], "little")\n',
        WEIGH_TESTS + FOLD_TESTS,
    ),
    # the census's carried slots (counting._carried_width)
    "carried-width-for-2-to-the-n-minus-2": Mutant(
        "counting.py",
        "    return _slot_width((1 << max(n - 1, 0)) + 1)\n",
        "    return _slot_width((1 << max(n - 2, 0)) + 1)\n",
        FOLD_TESTS,
        equivalent=(
            "it drops the spare bit of the carried slots, which belongs to the one "
            "width rule, _slot_width, and which only the weighing's signed read "
            "needs: the widths differ only at n = 8 and 16, where the mutant's 1 and "
            "2 bytes still hold every count, at most i(T) <= 2**(n-1) + 1 < 2**n, "
            "and the carried vectors are read unsigned"
        ),
    ),
    # the assignments of verify --max-n (counting._resolve_every_phi)
    "sweep-resolves-every-phi-all-generic": Mutant(
        "counting.py",
        "        yield phi, _resolve_spec(role, total, label, low, dims, phi, 0)\n",
        "        yield phi, _resolve_spec(role, total, label, low, dims, PhiKind.GENERIC, 0)\n",
        SWEEP_TESTS,
    ),
    "sweep-maps-kinds-in-pass-order": Mutant(
        "counting.py",
        "        yield phi, _resolve_spec(role, total, label, low, dims, phi, 0)\n",
        "        yield phi, _resolve_spec(role, total, label, low, dims, dict(zip(low, phi.kinds)), 0)\n",
        SWEEP_TESTS,
    ),
    "assignment-mapped-in-label-order": Mutant(
        "counting.py",
        "        for kind, c in zip(spec.kinds, sorted(range(len(low)), key=low.__getitem__)):\n",
        "        for kind, c in zip(spec.kinds, range(len(low))):\n",
        SWEEP_TESTS,
    ),
    "assignments-versal-first": Mutant(
        "counting.py",
        "    kinds = (PhiKind.GENERIC, PhiKind.VERSAL)\n",
        "    kinds = (PhiKind.VERSAL, PhiKind.GENERIC)\n",
        SWEEP_TESTS,
    ),
}


def _copy_checkout(into: Path) -> None:
    junk = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT / "src", into / "src", ignore=junk)
    shutil.copytree(ROOT / "tests", into / "tests", ignore=junk)
    shutil.copy(ROOT / "pyproject.toml", into / "pyproject.toml")


def _pytest(checkout: Path, tests: tuple[str, ...]) -> tuple[str, str]:
    """("passed" | "failed" | "timeout", the last line pytest printed)."""
    # the copy's pyproject.toml puts its own src/ first on the path
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(
            cmd, cwd=checkout, env=env, capture_output=True, text=True, timeout=TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return "timeout", f"no result in {TIMEOUT} s"
    lines = proc.stdout.strip().splitlines() or [proc.stderr.strip()]
    return ("passed" if proc.returncode == 0 else "failed"), lines[-1]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = ap.parse_args(argv)
    unknown = [name for name in args.names if name not in MUTANTS]
    if unknown:
        ap.error(f"unknown mutants: {', '.join(unknown)}")
    names = args.names or list(MUTANTS)
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="treecount-mutants-") as tmp:
        checkout = Path(tmp)
        _copy_checkout(checkout)
        subsets = sorted({MUTANTS[name].tests for name in names})
        for tests in subsets:
            outcome, last = _pytest(checkout, tests)
            if outcome != "passed":
                print(f"unmutated subset {outcome}: {last}\n  {' '.join(tests)}")
                return 2
        bad = 0
        for name in names:
            mutant = MUTANTS[name]
            target = checkout / "src" / "treecount" / mutant.path
            original = target.read_text(encoding="utf-8")
            if original.count(mutant.old) != 1:
                print(f"{name}: the rewrite does not apply exactly once to {mutant.path}")
                return 2
            target.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                outcome, last = _pytest(checkout, mutant.tests)
            finally:
                target.write_text(original, encoding="utf-8")
            survived = outcome == "passed"
            if mutant.equivalent is not None:
                verdict = "equivalent" if survived else "KILLED, listed as equivalent"
                bad += not survived
            else:
                verdict = "SURVIVED" if survived else "killed"
                bad += survived
            print(f"{verdict:>10}  {name}: {last}")
            if mutant.equivalent is not None:
                print(f"            ({mutant.equivalent})")
    print(f"{len(names)} mutants, {bad} unexpected, {time.perf_counter() - started:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
