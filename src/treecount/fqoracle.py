"""Exact point counting over prime fields: the verification backbone.

A point of the scheme is a pair (x, x') satisfying one exchange relation
x_i x'_i = 1 + alpha_i * prod of the neighbor x_j per vertex.  For a fixed
x, each vertex contributes an independent factor of choices for x'_i::

    x_i != 0          -> exactly one x'_i
    x_i == 0, RHS == 0 -> q free choices
    x_i == 0, RHS != 0 -> none

so the count is a sum over x in F_q**n of a product of per-vertex factors,
each depending on x_i and the product of its neighbors' values.  That sum
factors along the tree and is computed exactly by a transfer sum in
O(n * q**3), never by visiting the q**n points.  Summing the factor of a
versal vertex over its parameter gives a closed form, so versal components
cost nothing extra; generic components are swept over every tuple passing
the genericity condition, one transfer sum per tuple, with the count
asserted identical across them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .coloring import Color
from .counting import PhiKind, PhiSpec, count_polynomial, resolve_tree_phi
from .groupoid import genericity_patterns, is_generic
from .matchings import _postorder, maximum_matching, uncovered_vertices
from .trees import Tree

WORK_BUDGET = 10**9


class GuardError(ValueError):
    """Job exceeds the work budget; pass force=True to run it anyway."""


class ConstancyError(AssertionError):
    """Two generic parameter tuples gave different point counts."""


class NoGenericParameters:
    """Signal: no parameter tuple satisfies the genericity condition.

    Possible over tiny fields; a skip, not a failure.
    """

    def __repr__(self) -> str:  # pragma: no cover
        return "NoGenericParameters"


NO_GENERIC_PARAMETERS = NoGenericParameters()


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FqContext:
    """A prime field F_q."""

    q: int

    def __post_init__(self) -> None:
        if not _is_prime(self.q):
            raise ValueError(f"{self.q} is not prime")


def _fixed_factor(q: int, a: int) -> list[list[int]]:
    """Choices of x'_v as a table [x_v][P] for the fixed coefficient ``a``,
    P the product of the neighbor values."""
    degenerate = [q if (1 + a * p) % q == 0 else 0 for p in range(q)]
    return [degenerate] + [[1] * q for _ in range(1, q)]


def _versal_factor(q: int) -> list[list[int]]:
    """:func:`_fixed_factor` summed over every invertible coefficient."""
    return [[0] + [q] * (q - 1)] + [[q - 1] * q for _ in range(1, q)]


def _tree_sum(t: Tree, q: int, factor: Sequence[Sequence[Sequence[int]]]) -> int:
    """Sum over x in F_q**n of prod_v factor[v][x_v][prod of the neighbor x_w].

    The sum factors along the tree.  In post-order, each vertex v gets a
    table up[v][x_parent][x_v] summing its subtree given both values; its
    children merge by multiplicative convolution over F_q, which costs
    O(q**3) per edge.  The root sees a parent fixed at 1, the empty product.
    """
    mul = [[a * b % q for b in range(q)] for a in range(q)]
    order, parent = _postorder(t)
    up: list[list[list[int]]] = [[] for _ in range(t.n)]
    for v in order:
        children = [up[c] for c in t.neighbors[v] if c != parent[v]]
        # by_product[x][p]: children of v weighted, with value product p, at x_v = x
        by_product = []
        for x in range(q):
            dist = [0] * q
            dist[1] = 1
            for table in children:
                column = table[x]
                merged = [0] * q
                for p, weight in enumerate(dist):
                    if weight:
                        row = mul[p]
                        for y, c in enumerate(column):
                            if c:
                                merged[row[y]] += weight * c
                dist = merged
            by_product.append(dist)
        f = factor[v]
        up[v] = [
            [
                sum(weight * f[x][mul[p][xp]] for p, weight in enumerate(dist))
                for x, dist in enumerate(by_product)
            ]
            for xp in range(q)
        ]
    return sum(up[order[-1]][1])


def count_fixed(t: Tree, ctx: FqContext, alpha: Sequence[int], force: bool = False) -> int:
    """Exact number of (x, x') solutions with every coefficient fixed."""
    if len(alpha) != t.n:
        raise ValueError("one alpha value per vertex")
    q = ctx.q
    if q**t.n > WORK_BUDGET and not force:
        raise GuardError(f"q**n = {q**t.n} exceeds the work budget")
    return _tree_sum(t, q, [_fixed_factor(q, a % q) for a in alpha])


def assert_edge_cover(t: Tree, ctx: FqContext, alpha: Sequence[int]) -> None:
    """Check that no counted solution has both ends of an edge at zero."""
    q = ctx.q
    factor = [_fixed_factor(q, a % q) for a in alpha]
    for a, b in t.edges:
        forced = list(factor)
        for v in (a, b):
            forced[v] = [factor[v][0]] + [[0] * q for _ in range(1, q)]
        if _tree_sum(t, q, forced):
            raise AssertionError(f"point with x_{a} = x_{b} = 0 on the edge {a}-{b}")


def jump_alpha(
    t: Tree, alpha: Sequence[int], u: int, v: int, q: int
) -> list[int]:
    """Numeric coefficient jump of u over v: divide every neighbor of v
    (u included) by the old value at u."""
    if not t.has_edge(u, v):
        raise ValueError(f"{u}-{v} is not an edge")
    inv = pow(alpha[u] % q, q - 2, q)
    out = [a % q for a in alpha]
    for w in t.neighbors[v]:
        out[w] = out[w] * inv % q
    return out


def count_points(
    t: Tree,
    phi: PhiSpec,
    ctx: FqContext,
    force: bool = False,
) -> int | NoGenericParameters:
    """Exact point count for one generic/versal choice.

    Fixes a maximum matching, sums over all invertible values of the versal
    parameters in closed form, and sweeps the generic parameters over every
    tuple passing the genericity condition, asserting the count does not
    depend on the tuple.  Returns :data:`NO_GENERIC_PARAMETERS` when no
    tuple passes.
    """
    q = ctx.q
    coloring, partition, assignment, kinds = resolve_tree_phi(t, phi)
    m = maximum_matching(t)
    free = [
        v for v in uncovered_vertices(t, m) if coloring.colors[v] is Color.RED
    ]
    if len(free) != len(uncovered_vertices(t, m)):
        raise AssertionError("a non-red vertex escaped the maximum matching")
    versal_count = sum(1 for v in free if kinds[v] is PhiKind.VERSAL)
    if q ** (t.n + versal_count) > WORK_BUDGET and not force:
        raise GuardError(
            f"q**(n + versal parameters) = {q ** (t.n + versal_count)} "
            "exceeds the work budget"
        )
    tables = [_fixed_factor(q, a) for a in range(q)]
    versal = _versal_factor(q)
    factor = [
        tables[1] if v not in free else versal if kinds[v] is PhiKind.VERSAL else None
        for v in range(t.n)
    ]
    # passing tuples per generic component, over its free vertices
    generic: list[tuple[list[int], list[tuple[int, ...]]]] = []
    for comp, kind in zip(partition, assignment.kinds):
        if kind is not PhiKind.GENERIC:
            continue
        vertices = [v for v in free if v in comp.vertices]
        if not vertices:
            continue
        patterns = genericity_patterns(comp)
        passing = [
            values
            for values in itertools.product(range(1, q), repeat=len(vertices))
            if is_generic(patterns, dict(zip(vertices, values)), q)
        ]
        if not passing:
            return NO_GENERIC_PARAMETERS
        generic.append((vertices, passing))
    counts = set()
    for combo in itertools.product(*(passing for _, passing in generic)):
        for (vertices, _), values in zip(generic, combo):
            for v, a in zip(vertices, values):
                factor[v] = tables[a]
        counts.add(_tree_sum(t, q, factor))
    if len(counts) != 1:
        raise ConstancyError(
            f"generic point count depends on the parameters: {sorted(counts)}"
        )
    return counts.pop()


@dataclass(frozen=True)
class PrimeCheck:
    q: int
    status: str  # "ok", "mismatch" or "skipped"
    oracle: int | None
    expected: int


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[PrimeCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "mismatch" for c in self.checks)

    @property
    def skipped(self) -> tuple[int, ...]:
        return tuple(c.q for c in self.checks if c.status == "skipped")


def verify_polynomial(
    t: Tree,
    phi: PhiSpec,
    primes: Sequence[int],
    force: bool = False,
) -> VerifyReport:
    """Compare the counting polynomial against the F_q point-count oracle."""
    poly = count_polynomial(t, phi)
    checks = []
    for q in primes:
        ctx = FqContext(q)
        expected = poly(q)
        got = count_points(t, phi, ctx, force=force)
        if isinstance(got, NoGenericParameters):
            checks.append(PrimeCheck(q, "skipped", None, expected))
        elif got == expected:
            checks.append(PrimeCheck(q, "ok", got, expected))
        else:
            checks.append(PrimeCheck(q, "mismatch", got, expected))
    return VerifyReport(tuple(checks))
