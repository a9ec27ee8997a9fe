"""Exact point counting over prime fields: the verification backbone.

A point of the scheme is a pair (x, x') satisfying one exchange relation
x_i x'_i = 1 + alpha_i * prod of the neighbor x_j per vertex.  For a fixed
x, each vertex contributes an independent factor of choices for x'_i::

    x_i != 0          -> exactly one x'_i
    x_i == 0, RHS == 0 -> q free choices
    x_i == 0, RHS != 0 -> none

so the count is a sum over x in F_q**n of a product of per-vertex factors,
each depending on x_i and the product P of its neighbors' values.  Away
from x_i = 0 a factor does not depend on P, so it is stored as a pair
``(zero_row, w)``: the factor at x_i = 0 as a function of P, and the one
constant it takes at every x_i != 0.  The sum factors along the tree and is
computed exactly by a transfer sum in O(n * q**2), never by visiting the
q**n points.  Summing the factor of a versal vertex over its parameter
gives a closed form, so versal components cost nothing extra; generic
components are swept over every tuple passing the genericity condition,
one transfer sum per tuple, with the count asserted identical across them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .coloring import Color
from .counting import PhiKind, PhiSpec, ResolvedPhi, _count_resolved, resolve_tree_phi
from .groupoid import GenericityPattern, generic_tuples, genericity_patterns
from .matchings import _postorder, maximum_matching, uncovered_vertices
from .trees import Tree

WORK_BUDGET = 10**9

#: A vertex factor: the choices of x'_v at x_v = 0 as a function of the
#: neighbor product P, and the constant number of choices at x_v != 0.
Factor = tuple[Sequence[int], int]
#: Vertices in post-order, each with its children; the root comes last.
Walk = tuple[tuple[int, tuple[int, ...]], ...]


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
    """A prime field F_q with the arithmetic tables the transfer sum reads,
    built on first use."""

    q: int

    def __post_init__(self) -> None:
        if not _is_prime(self.q):
            raise ValueError(f"{self.q} is not prime")

    @cached_property
    def mul(self) -> tuple[tuple[int, ...], ...]:
        q = self.q
        return tuple(tuple(a * b % q for b in range(q)) for a in range(q))

    @cached_property
    def inv(self) -> tuple[int, ...]:
        """Multiplicative inverses, with 0 at 0."""
        q = self.q
        return (0,) + tuple(pow(a, q - 2, q) for a in range(1, q))


def _fixed_factor(q: int, a: int) -> Factor:
    """Choices of x'_v for the fixed coefficient ``a``: q at x_v = 0 when
    1 + a P = 0, none at other P, one at every x_v != 0."""
    return [q if (1 + a * p) % q == 0 else 0 for p in range(q)], 1


def _versal_factor(q: int) -> Factor:
    """:func:`_fixed_factor` summed over every invertible coefficient."""
    return [0] + [q] * (q - 1), q - 1


def _walk(t: Tree) -> Walk:
    order, parent = _postorder(t)
    return tuple(
        (v, tuple(c for c in t.neighbors[v] if c != parent[v])) for v in order
    )


def _tree_sum(walk: Walk, ctx: FqContext, factor: Sequence[Factor]) -> int:
    """Sum over x in F_q**n of prod_v factor[v] at (x_v, prod of the neighbor
    x_w), with ``factor[v] = (zero_row, w)`` as in the module docstring.

    In post-order each vertex v keeps ``nz[v][y]``, its subtree summed at
    x_v = y != 0, and ``z[v][xp]``, its subtree summed at x_v = 0 with the
    parent at xp.  At y != 0 the factor is the constant w, so nz[v][y] does
    not depend on the parent: it is w times a product of per-child totals.
    Every zero row vanishes at P = 0 (x_v x'_v = 1 has no solution with
    x_v = 0), so at x_v = 0 only children at nonzero values count; the
    distribution of their product over F_q^* is a multiplicative
    convolution of their nz rows, O(q**2) per edge.  The zero row is then
    read only at its nonzero entries P, each met at the children's product
    P / xp.  The root sees a parent fixed at 1, the empty product.
    """
    q, mul, inv = ctx.q, ctx.mul, ctx.inv
    units = range(1, q)
    nz: list[list[int]] = [[] for _ in factor]
    z: list[list[int]] = [[] for _ in factor]
    nz_sum = [0] * len(factor)
    for v, children in walk:
        zero_row, w = factor[v]
        if zero_row[0]:
            raise ValueError(f"zero row of vertex {v} is nonzero at P = 0")
        row = [0] + [w] * (q - 1)
        # dist[p]: children of v weighted at x_v = 0, with value product p
        dist = [0] * q
        dist[1] = 1
        for c in children:
            zc, nzc, sc = z[c], nz[c], nz_sum[c]
            for y in units:
                row[y] *= zc[y] + sc
            merged = [0] * q
            for p in units:
                weight = dist[p]
                if weight:
                    mp = mul[p]
                    for y in units:
                        merged[mp[y]] += weight * nzc[y]
            dist = merged
        zv = [0] * q
        for p in units:
            choices = zero_row[p]
            if choices:
                mp = mul[p]
                for xp in units:
                    zv[xp] += choices * dist[mp[inv[xp]]]
        nz[v], z[v], nz_sum[v] = row, zv, sum(row)
    root = walk[-1][0]
    return nz_sum[root] + z[root][1]


def count_fixed(t: Tree, ctx: FqContext, alpha: Sequence[int], force: bool = False) -> int:
    """Exact number of (x, x') solutions with every coefficient fixed."""
    if len(alpha) != t.n:
        raise ValueError("one alpha value per vertex")
    q = ctx.q
    if q**t.n > WORK_BUDGET and not force:
        raise GuardError(f"q**n = {q**t.n} exceeds the work budget")
    return _tree_sum(_walk(t), ctx, [_fixed_factor(q, a % q) for a in alpha])


def assert_edge_cover(t: Tree, ctx: FqContext, alpha: Sequence[int]) -> None:
    """Check that no counted solution has both ends of an edge at zero."""
    q = ctx.q
    walk = _walk(t)
    factor = [_fixed_factor(q, a % q) for a in alpha]
    for a, b in t.edges:
        forced = list(factor)
        for v in (a, b):
            forced[v] = (factor[v][0], 0)
        if _tree_sum(walk, ctx, forced):
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


@dataclass(frozen=True)
class _Plan:
    """What the oracle needs of one (tree, phi) at every q."""

    n: int
    walk: Walk
    versal: tuple[int, ...]
    # free vertices and genericity patterns of each generic component
    generic: tuple[tuple[tuple[int, ...], list[GenericityPattern]], ...]


def _plan(t: Tree, resolved: ResolvedPhi) -> _Plan:
    """Fix a maximum matching and collect the free vertices of every
    component with its patterns."""
    coloring, partition, assignment, kinds = resolved
    uncovered = uncovered_vertices(t, maximum_matching(t))
    free = [v for v in uncovered if coloring.colors[v] is Color.RED]
    if len(free) != len(uncovered):
        raise AssertionError("a non-red vertex escaped the maximum matching")
    generic = []
    for comp, kind in zip(partition, assignment.kinds):
        vertices = tuple(v for v in free if v in comp.vertices)
        if kind is PhiKind.GENERIC and vertices:
            generic.append((vertices, genericity_patterns(comp)))
    return _Plan(
        t.n,
        _walk(t),
        tuple(v for v in free if kinds[v] is PhiKind.VERSAL),
        tuple(generic),
    )


def count_points(
    t: Tree,
    phi: PhiSpec | _Plan,
    ctx: FqContext,
    force: bool = False,
) -> int | NoGenericParameters:
    """Exact point count for one generic/versal choice.

    Fixes a maximum matching, sums over all invertible values of the versal
    parameters in closed form, and sweeps the generic parameters over every
    tuple passing the genericity condition, asserting the count does not
    depend on the tuple.  Returns :data:`NO_GENERIC_PARAMETERS` when no
    tuple passes.  ``phi`` may also be the plan of ``t`` that
    :func:`verify_polynomial` builds once for all its primes.
    """
    plan = phi if isinstance(phi, _Plan) else _plan(t, resolve_tree_phi(t, phi))
    q = ctx.q
    size = q ** (plan.n + len(plan.versal))
    if size > WORK_BUDGET and not force:
        raise GuardError(
            f"q**(n + versal parameters) = {size} exceeds the work budget"
        )
    tables = [_fixed_factor(q, a) for a in range(q)]
    factor = [tables[1]] * plan.n
    for v in plan.versal:
        factor[v] = _versal_factor(q)
    sweeps = []
    for vertices, patterns in plan.generic:
        passing = generic_tuples(patterns, vertices, q)
        if not passing:
            return NO_GENERIC_PARAMETERS
        sweeps.append(passing)
    counts = set()
    for combo in itertools.product(*sweeps):
        for (vertices, _), values in zip(plan.generic, combo):
            for v, a in zip(vertices, values):
                factor[v] = tables[a]
        counts.add(_tree_sum(plan.walk, ctx, factor))
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
    """Compare the counting polynomial against the F_q point-count oracle
    (:func:`count_points` at each prime, with phi resolved once for both)."""
    resolved = resolve_tree_phi(t, phi)
    poly = _count_resolved(t, resolved)
    plan = _plan(t, resolved)
    checks = []
    for q in primes:
        expected = poly(q)
        got = count_points(t, plan, FqContext(q), force=force)
        if isinstance(got, NoGenericParameters):
            checks.append(PrimeCheck(q, "skipped", None, expected))
        elif got == expected:
            checks.append(PrimeCheck(q, "ok", got, expected))
        else:
            checks.append(PrimeCheck(q, "mismatch", got, expected))
    return VerifyReport(tuple(checks))
