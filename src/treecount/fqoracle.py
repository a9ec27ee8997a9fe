"""Brute-force point counting over prime fields: the verification backbone.

A point of the scheme is a pair (x, x') satisfying one exchange relation
x_i x'_i = 1 + alpha_i * prod of the neighbor x_j per vertex.  For a fixed
x, each vertex contributes an independent factor of choices for x'_i::

    x_i != 0          -> exactly one x'_i
    x_i == 0, RHS == 0 -> q free choices
    x_i == 0, RHS != 0 -> none

so the count is a sum over the q**n grid of products of factors.  The grid
sweep is vectorized and, crucially, done once per (tree, matching, q): for
every grid point the factor depends on a free parameter alpha_i only
through the single value that makes the relation degenerate, so one pass
tallies the count for every parameter tuple simultaneously.  Versal
components are then summed over their parameters; generic components are
swept over every tuple passing the genericity condition, with the count
asserted identical across them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .coloring import Color
from .counting import PhiKind, PhiSpec, count_polynomial, resolve_tree_phi
from .groupoid import genericity_check
from .matchings import maximum_matching, uncovered_vertices
from .trees import Tree

WORK_BUDGET = 10**9
_CHUNK = 1 << 18


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


def _grid_digit(offset: int, count: int, stride: int, q: int) -> np.ndarray:
    return (np.arange(offset, offset + count, dtype=np.int64) // stride) % q


def _alpha_table(
    t: Tree,
    q: int,
    free: Sequence[int],
    fixed: Mapping[int, int],
    check_cover: bool = False,
) -> np.ndarray:
    """Point counts as an array over the free parameters.

    Sweeps the q**n grid of x once.  Entry [a_0-1, ..., a_{k-1}-1] of the
    result is the count with free vertex ``free[i]`` given the invertible
    value ``a_i`` and every other vertex the value from ``fixed``.
    """
    n = t.n
    k = len(free)
    total = q**n
    neg_inv = np.array([0] + [(q - pow(v, q - 2, q)) % q for v in range(1, q)], dtype=np.int64)
    strides = [q**v for v in range(n)]
    acc = np.zeros(q**k if k else 1, dtype=np.int64)
    for start in range(0, total, _CHUNK):
        count = min(_CHUNK, total - start)
        digits = [_grid_digit(start, count, strides[v], q) for v in range(n)]
        prods = []
        for v in range(n):
            p = np.ones(count, dtype=np.int64)
            for w in t.neighbors[v]:
                p = p * digits[w] % q
            prods.append(p)
        weight = np.ones(count, dtype=np.int64)
        for v in range(n):
            if v in fixed:
                rhs = (1 + fixed[v] * prods[v]) % q
                weight *= np.where(digits[v] != 0, 1, np.where(rhs == 0, q, 0))
        code = np.zeros(count, dtype=np.int64)
        for i, v in enumerate(free):
            zero = digits[v] == 0
            dead = zero & (prods[v] == 0)
            constrained = zero & ~dead
            weight = np.where(dead, 0, weight * np.where(constrained, q, 1))
            code += np.where(constrained, neg_inv[prods[v]], 0) * q**i
        if check_cover:
            for a, b in t.edges:
                if np.any((digits[a] == 0) & (digits[b] == 0) & (weight > 0)):
                    raise AssertionError(
                        f"point with x_{a} = x_{b} = 0 on the edge {a}-{b}"
                    )
        np.add.at(acc, code, weight)
    if not k:
        return acc
    table = acc.reshape((q,) * k, order="F")
    # digit 0 means "no constraint": fold it into every nonzero value
    for axis in range(k):
        free_slice = table.take(indices=[0], axis=axis)
        table = table.take(indices=range(1, q), axis=axis) + free_slice
    return table


def count_fixed(t: Tree, ctx: FqContext, alpha: Sequence[int], force: bool = False) -> int:
    """Exact number of (x, x') solutions with every coefficient fixed."""
    if len(alpha) != t.n:
        raise ValueError("one alpha value per vertex")
    q = ctx.q
    if q**t.n > WORK_BUDGET and not force:
        raise GuardError(f"q**n = {q**t.n} exceeds the work budget")
    table = _alpha_table(t, q, [], {v: alpha[v] % q for v in range(t.n)})
    return int(table[0])


def assert_edge_cover(t: Tree, ctx: FqContext, alpha: Sequence[int]) -> None:
    """Check that no counted solution has both ends of an edge at zero."""
    _alpha_table(
        t, ctx.q, [], {v: alpha[v] % ctx.q for v in range(t.n)}, check_cover=True
    )


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
    """Brute-force point count for one generic/versal choice.

    Fixes a maximum matching, sums over all invertible values of the versal
    parameters, and sweeps the generic parameters over every tuple passing
    the genericity condition, asserting the count does not depend on the
    tuple.  Returns :data:`NO_GENERIC_PARAMETERS` when no tuple passes.
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
    table = _alpha_table(t, q, free, {v: 1 for v in range(t.n) if v not in free})
    if not free:
        return int(table[0])
    axis_of = {v: i for i, v in enumerate(free)}
    # sum out the versal axes
    versal_axes = sorted(
        (axis_of[v] for v in free if kinds[v] is PhiKind.VERSAL), reverse=True
    )
    reduced = table
    for axis in versal_axes:
        reduced = reduced.sum(axis=axis)
    generic_axes = [axis_of[v] for v in free if kinds[v] is PhiKind.GENERIC]
    remaining = {old: new for new, old in enumerate(sorted(generic_axes))}
    if not generic_axes:
        return int(reduced if reduced.ndim == 0 else reduced[()])
    # passing tuples per generic component, in the reduced array's axes
    comp_axes: list[list[int]] = []
    comp_choices: list[list[tuple[int, ...]]] = []
    for comp, kind in zip(partition, assignment.kinds):
        if kind is not PhiKind.GENERIC:
            continue
        vertices = [v for v in free if v in comp.vertices]
        if not vertices:
            continue
        axes = [remaining[axis_of[v]] for v in vertices]
        passing = []
        for values in itertools.product(range(1, q), repeat=len(vertices)):
            alpha = dict(zip(vertices, values))
            if genericity_check(comp, alpha, q):
                passing.append(values)
        if not passing:
            return NO_GENERIC_PARAMETERS
        comp_axes.append(axes)
        comp_choices.append(passing)
    counts = set()
    for combo in itertools.product(*comp_choices):
        index = [0] * reduced.ndim
        for axes, values in zip(comp_axes, combo):
            for axis, value in zip(axes, values):
                index[axis] = value - 1
        counts.add(int(reduced[tuple(index)]))
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
    """Compare the counting polynomial against the brute-force oracle."""
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
