"""Workload inputs, timed calls and correctness gates.

Every pass runs in a fresh interpreter and every unit of it (one tree on
``count_random``, the whole job elsewhere) on a fresh import of treecount
(see ``child.py``), so the program starts cold each time, as a command-line
invocation would.  The inputs are made here from the workload seed; the
program only ever receives trees and generic/versal choices.

Why these workloads (each stresses different layers):

* ``census``: free-tree generation and ``canonical_key`` dedup dominate, and
  the trees share subtrees, so the counting memo hits across trees.
* ``count_random``: random Pruefer trees with mixed choices; the recursion
  layers (``remove_vertices``/``Tree``, coloring, keys, memo) do the work.
* ``oracle_sweep``: the brute-force F_q grid sweep and the genericity tuple
  loop dominate; the counting layers barely run.  Control workload.
* ``long_path``: few large recursion states with a high memo-hit ratio and
  ``Poly`` operands up to degree 200.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

WORKLOADS = ("census", "count_random", "oracle_sweep", "long_path")


class Gates:
    """Correctness checks of one pass; a failed check is never a timing."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


@dataclass
class Job:
    """The timed calls of one unit of a pass and the check of their results."""

    items: list[tuple[str, Callable[[], Any]]]
    check: Callable[[list[Any], Gates], dict[str, float]]
    # layer numbers known from the inputs alone, reported by the traced run
    computed: dict[str, float] = field(default_factory=dict)


def digest(coeffs: tuple[int, ...]) -> str:
    return hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()[:16]


def prufer_edges(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Edges of the labelled tree on 0..n-1 with the given Pruefer sequence."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def independent_set_sizes(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """``c[k]`` = number of independent sets of size k (tree DP, root 0)."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order, parent, stack = [], [-1] * n, [0]
    seen = [False] * n
    seen[0] = True
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                stack.append(w)

    def mul(a: list[int], b: list[int]) -> list[int]:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    out_v: list[list[int]] = [[1] for _ in range(n)]  # v not in the set
    in_v: list[list[int]] = [[0, 1] for _ in range(n)]  # v in the set
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            either = [x + y for x, y in itertools.zip_longest(out_v[v], in_v[v], fillvalue=0)]
            out_v[p] = mul(out_v[p], either)
            in_v[p] = mul(in_v[p], out_v[v])
    total = [x + y for x, y in itertools.zip_longest(out_v[0], in_v[0], fillvalue=0)]
    while total[-1] == 0:
        total.pop()
    return total


def versal_formula(n: int, edges: list[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """All-versal N = sum over independent sets S of (q-1)^(n+d-2|S|) q^|S|.

    Returns the coefficients and vc(T), the number of maximum independent
    sets.  ``d = 2 alpha - n`` is the dimension (Koenig: alpha = n - nu).
    """
    counts = independent_set_sizes(n, edges)
    alpha = len(counts) - 1
    d = 2 * alpha - n
    total = [0] * (n + d + 1)
    for k, c in enumerate(counts):
        e = n + d - 2 * k
        for j in range(e + 1):  # (q-1)^e q^k, binomially expanded
            total[k + j] += c * math.comb(e, j) * (-1) ** (e - j)
    while total and total[-1] == 0:
        total.pop()
    return tuple(total), counts[alpha]


def _relabel(tc: Any, t: Any, rng: random.Random) -> Any:
    """The tree with vertex v renamed perm[v], for a seeded permutation."""
    perm = list(range(t.n))
    rng.shuffle(perm)
    return tc.Tree(t.n, tuple((perm[u], perm[v]) for u, v in t.edges))


def _components(tc: Any, t: Any) -> Any:
    return tc.red_green_components(t, tc.canonical_coloring(t))


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def census_job(tc: Any, seed: int, expected: dict, index: int) -> Job:
    """Three censuses in one interpreter; the seed changes nothing here."""
    specs = expected["census"]
    items = [
        (f"census({s['n']}, {s['class']})",
         lambda s=s: tc.census(s["n"], tc.CensusClass(s["class"])))
        for s in specs
    ]

    def check(results: list[Any], gates: Gates) -> dict[str, float]:
        for (label, _), s, rep in zip(items, specs, results):
            gates.check(rep.tree_count == s["trees"],
                        f"{label}: {rep.tree_count} trees, expected {s['trees']}")
            gates.check(rep.distinct_polynomial_count == s["polynomials"],
                        f"{label}: {rep.distinct_polynomial_count} polynomials, "
                        f"expected {s['polynomials']}")
        return {}

    return Job(items, check)


# ---------------------------------------------------------------------------
# count_random
# ---------------------------------------------------------------------------

def count_random_picks(expected: dict, seed: int) -> list[dict]:
    """One pool entry per cost stratum, drawn from the seed.

    The trees keep the labels of their Pruefer sequences: relabelling changes
    the recursion's tie-breaks and with them the cost of the big trees by up
    to a factor of two, which would swamp the measurement.
    """
    rng = random.Random(f"count_random/{seed}")
    return [rng.choice(stratum) for stratum in expected["count_random"]["strata"]]


def count_random_job(tc: Any, seed: int, expected: dict, index: int) -> Job:
    """One seeded random tree, counted from a cold start."""
    entry = count_random_picks(expected, seed)[index]
    n = entry["n"]
    t = tc.Tree(n, tuple(prufer_edges(entry["prufer"], n)))
    part = _components(tc, t)
    phi = {comp.min_vertex: entry["phi"][str(comp.min_vertex)] for comp in part}
    kinds = [phi[comp.min_vertex] for comp in part]
    label = f"n={n} comps={len(part)} pool#{entry['id']}"
    items = [(label, lambda: tc.count_polynomial(t, phi or None))]

    def check(results: list[Any], gates: Gates) -> dict[str, float]:
        (p,) = results
        versal_rank = sum(c.dimension for c, k in zip(part, kinds) if k == "versal")
        gates.check(p.is_monic and p.degree == n + versal_rank,
                    f"{label}: not monic of degree n + versal rank = {n + versal_rank}")
        rank = tc.rank_profile(part, [k == "generic" for k in kinds]).rank
        rep = tc.reciprocity_report(p, rank)
        gates.check(rep.divisible and rep.reciprocal,
                    f"{label}: (q-1)^{rank} divisibility/reciprocity fails")
        gates.check(digest(p.coeffs) == entry["digest"],
                    f"{label}: digest {digest(p.coeffs)} != committed {entry['digest']}")
        if kinds and all(k == "versal" for k in kinds):
            formula, vc = versal_formula(n, list(t.edges))
            gates.check(p.coeffs == formula, f"{label}: independent-set formula disagrees")
            gates.check(p(1) == vc == tc.count_maximum_independent_sets(t),
                        f"{label}: N(1) = {p(1)} != vc(T) = {vc}")
        return {}

    return Job(items, check)


# ---------------------------------------------------------------------------
# oracle_sweep
# ---------------------------------------------------------------------------

def oracle_sweep_job(tc: Any, seed: int, expected: dict, index: int) -> Job:
    """Every (tree, choice) pair with n <= max_n, relabelled and shuffled."""
    spec = expected["oracle_sweep"]
    primes = spec["primes"]
    rng = random.Random(f"oracle_sweep/{seed}")
    pairs = []
    trees = 0
    for n in range(1, spec["max_n"] + 1):
        for base in tc.enumerate_free_trees(n):
            trees += 1
            t = _relabel(tc, base, rng)
            part = _components(tc, t)
            for kinds in itertools.product(("generic", "versal"), repeat=len(part)):
                phi = {c.min_vertex: k for c, k in zip(part, kinds)}
                versal = sum(c.dimension for c, k in zip(part, kinds) if k == "versal")
                pairs.append((t, phi or None, versal))
    rng.shuffle(pairs)
    grid = sum(q ** (t.n + versal) for t, _, versal in pairs for q in primes)
    items = [
        (f"n={t.n} phi={phi}",
         lambda t=t, phi=phi: tc.verify_polynomial(t, phi, primes, force=True))
        for t, phi, _ in pairs
    ]

    def check(results: list[Any], gates: Gates) -> dict[str, float]:
        gates.check(trees == spec["trees"],
                    f"{trees} trees with n <= {spec['max_n']}, expected {spec['trees']}")
        gates.check(len(pairs) == spec["pairs"], f"{len(pairs)} pairs, expected {spec['pairs']}")
        skipped = checks = 0
        for (label, _), rep in zip(items, results):
            gates.check(rep.passed, f"{label}: oracle mismatch {rep.checks}")
            gates.check(any(c.status == "ok" for c in rep.checks), f"{label}: every prime skipped")
            skipped += len(rep.skipped)
            checks += len(rep.checks)
        return {"fqoracle.skipped_checks": skipped, "fqoracle.prime_checks": checks}

    return Job(items, check, computed={"fqoracle.grid_points": grid})


# ---------------------------------------------------------------------------
# long_path
# ---------------------------------------------------------------------------

def long_path_job(tc: Any, seed: int, expected: dict, index: int) -> Job:
    """The versal path; fixed input, the seed changes nothing here."""
    n = expected["long_path"]["n"]
    t = tc.linear_tree(n)
    items = [(f"count_polynomial(linear_tree({n}), versal)",
              lambda: tc.count_polynomial(t, "versal"))]

    def check(results: list[Any], gates: Gates) -> dict[str, float]:
        gates.check(results[0] == tc.closed_form_a(n, tc.Mode.VERSAL),
                    f"linear_tree({n}) versal count differs from closed_form_a")
        return {}

    return Job(items, check)


BUILDERS = {
    "census": census_job,
    "count_random": count_random_job,
    "oracle_sweep": oracle_sweep_job,
    "long_path": long_path_job,
}


def units(workload: str, expected: dict) -> int:
    """count_random counts each tree from its own fresh import; the rest use one."""
    if workload == "count_random":
        return len(expected["count_random"]["strata"])
    return 1


def add_up(dicts: list[dict[str, float]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for d in dicts:
        for key, value in d.items():
            out[key] = out.get(key, 0) + value
    return out
