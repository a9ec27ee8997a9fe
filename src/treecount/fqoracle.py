"""Exact point counting over prime fields: the verification backbone.

A point of the scheme is a pair (x, x') satisfying one exchange relation
x_i x'_i = 1 + alpha_i * prod of the neighbor x_j per vertex.  For a fixed
x, each vertex contributes an independent factor of choices for x'_i::

    x_i != 0          -> exactly one x'_i
    x_i == 0, RHS == 0 -> q free choices
    x_i == 0, RHS != 0 -> none

so the count is a sum over x in F_q**n of a product of per-vertex factors,
each depending on x_i and the product P of its neighbors' values.  Away
from x_i = 0 a factor does not depend on P, and at x_i = 0 it is q at the
one P = -1/alpha_i, or at every unit P once a versal alpha_i is summed out,
or nowhere when alpha_i = 0.  So it is stored as a pair ``(at, w)``: the
unit P where it is q at x_i = 0 (0 for every unit, None for none), and the
one constant it takes at every x_i != 0.  The sum factors along the tree
and is computed exactly by a transfer sum, never by visiting the q**n
points: it costs O(n * q), plus O(q**2) for each multiplicative
convolution, which only a vertex whose children all have children of their
own needs (see :func:`_tree_sum` for the exact shortcuts that skip the
rest).  The only table is the O(q) inverse table of :class:`FqContext`, so
memory is O(n * q), and a job whose inverse table and rows would exceed
:data:`TABLE_BUDGET` entries is refused up front.
Summing the factor of a versal vertex over its parameter gives a closed
form, so versal components cost nothing extra.  The generic parameters of
all components are swept together, as one lazy walk over every generic free
vertex in ``itertools.product`` order, over the tuples passing the
genericity condition (:func:`generic_tuples`): one transfer sum per orbit
representative, with the count asserted identical across them.  Over a
field too small for any tuple to pass, the count is None, a skip.
Swapping two free leaves with one neighbor is an automorphism of the tree
that fixes the matching, the coloring, the components, phi and the
genericity patterns, so a tuple passes and counts exactly as its
representative does, the one with non-decreasing values on every such set
of siblings.  Skipping the rest of each orbit thus loses no check.
"""

from __future__ import annotations

from functools import cached_property
from typing import Collection, Iterator, NamedTuple, Sequence

from .coloring import Color
from .counting import PhiKind, PhiSpec, ResolvedPhi, _count_resolved, resolve_tree_phi
from .groupoid import GenericityPattern, genericity_patterns
from .trees import Tree

WORK_BUDGET = 10**9
#: Entries of the O(q) tables one count may hold: the inverse table and up
#: to two rows of length q per vertex.  The work budget alone would let a
#: one-vertex count reach q near 10**9, tens of GB of tables; this caps it
#: at q = 33331, where the generic sweep of q - 2 transfer sums takes a
#: few seconds.
TABLE_BUDGET = 10**5

#: A vertex factor: the unit neighbor product P at which x_v = 0 leaves q
#: choices of x'_v (0 for every unit P, None for no P), and the constant
#: number of choices at x_v != 0.
Factor = tuple[int | None, int]
#: Vertices in post-order, each with its children; the root comes last.
Walk = tuple[tuple[int, tuple[int, ...]], ...]


class GuardError(ValueError):
    """Job exceeds the work budget; pass force=True to run it anyway."""


class ConstancyError(AssertionError):
    """Two generic parameter tuples gave different point counts."""


#: The 13 primes up to 41.  As Miller-Rabin bases they decide primality
#: exactly for every q below :data:`PRIMALITY_BOUND`, the least composite
#: that is a strong pseudoprime to all of them (Sorenson and Webster,
#: Math. Comp. 86 (2017)).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin on :data:`_PRIME_BASES`; a q up to 41 is
    prime exactly when it is one of them.  A q from :data:`PRIMALITY_BOUND`
    up is refused: no table over such a field could be built anyway."""
    if q <= 41:
        return q in _PRIME_BASES
    if q >= PRIMALITY_BOUND:
        raise ValueError(
            f"cannot tell whether {q} is prime: the test is exact only below {PRIMALITY_BOUND}"
        )
    d, s = q - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


class FqContext:
    """A prime field F_q with its inverse table, built on first use: the one
    table the transfer sum, the fixed factors and :func:`generic_tuples`
    read."""

    def __init__(self, q: int) -> None:
        if not _is_prime(q):
            raise ValueError(f"{q} is not prime")
        self.q = q

    @cached_property
    def inv(self) -> tuple[int, ...]:
        """Multiplicative inverses, with 0 at 0."""
        q = self.q
        return (0,) + tuple(pow(a, q - 2, q) for a in range(1, q))


def _fixed_factor(ctx: FqContext, a: int) -> Factor:
    """Choices of x'_v for the fixed coefficient ``a`` (reduced mod q): q at
    x_v = 0 when 1 + a P = 0, that is at P = -1/a, none at other P, one at
    every x_v != 0."""
    return (-ctx.inv[a] % ctx.q if a else None), 1


def _versal_factor(q: int) -> Factor:
    """:func:`_fixed_factor` summed over every invertible coefficient."""
    return 0, q - 1


def _walk(t: Tree) -> Walk:
    parent = t.parent
    return tuple(
        (v, tuple(c for c in t.neighbors[v] if c != parent[v])) for v in t.order
    )


def _tree_sum(walk: Walk, ctx: FqContext, factor: Sequence[Factor]) -> int:
    """Sum over x in F_q**n of prod_v factor[v] at (x_v, prod of the neighbor
    x_w), with ``factor[v] = (at, w)`` as in the module docstring.

    In post-order each vertex v keeps ``nz[v][y]``, its subtree summed at
    x_v = y != 0, and ``z[v][xp]``, its subtree summed at x_v = 0 with the
    parent at xp.  At y != 0 the factor is the constant w, so nz[v][y] does
    not depend on the parent: it is w times a product of per-child totals,
    O(q) per edge.  A factor at x_v = 0 is never q at P = 0 (x_v x'_v = 1
    has no solution with x_v = 0), so at x_v = 0 only children at nonzero
    values count; the distribution ``dist`` of their product over F_q^* is a
    multiplicative convolution of their nz rows, starting from the delta at
    P = 1, and its total is the product of the children's totals.  The
    factor is q only at P = at, met at the children's product at / xp, so
    z[v][xp] = q * dist[at / xp].  The root sees a parent fixed at 1, the
    empty product.

    The O(q**2) convolution runs only at a vertex whose children all have
    children of their own; these shortcuts are exact:

    * childless vertex: its nz row is w on every unit, so only its total
      w (q - 1) is kept, and ``dist`` is the delta at 1, so z[v] is q at
      xp = at;
    * childless child: convolving anything with a row that is constant on
      the units gives a constant row, so ``dist`` is constant, at the
      product of the children's totals over q - 1, and z[v] is q times
      that on every unit, O(q);
    * flat factor (``at`` 0 or None, constant on the units): z[v] is that
      constant, q or 0, times the total of ``dist``, the product of the
      children's totals, on every unit, O(q);
    * first child: the delta convolved with its nz row is that row, taken
      as it is (no row is mutated once stored).

    A tuple thus costs O(n * q), plus O(q**2) for each child after the
    first at a vertex whose children all have children and whose factor
    is not flat.
    """
    q, inv = ctx.q, ctx.inv
    units = range(1, q)
    # nz[v] stays None for a childless v, whose nz row is w on every unit
    nz: list[list[int] | None] = [None] * len(factor)
    z: list[list[int]] = [[]] * len(factor)
    nz_sum = [0] * len(factor)
    for v, children in walk:
        at, w = factor[v]
        total, flat_dist = 1, False
        if children:
            row = [0] + [w] * (q - 1)
            for c in children:
                sc = nz_sum[c]
                row = [r * (zy + sc) for r, zy in zip(row, z[c])]
                total *= sc
                flat_dist = flat_dist or nz[c] is None
            nz[v], nz_sum[v] = row, sum(row)
        else:
            nz_sum[v] = w * (q - 1)
        if at is None:
            z[v] = [0] * q
        elif at == 0:
            z[v] = [0] + [q * total] * (q - 1)
        elif not children:
            z[v] = [0] * q
            z[v][at] = q
        elif flat_dist:
            z[v] = [0] + [total // (q - 1) * q] * (q - 1)
        else:
            dist = nz[children[0]]
            for c in children[1:]:
                nzc = nz[c]
                # merged[x] sums dist[p] * nzc[x / p] over the units p
                merged = [0] * q
                for p in units:
                    weight, over_p = dist[p], inv[p]
                    if weight:
                        merged = [
                            m + weight * nzc[x * over_p % q]
                            for x, m in enumerate(merged)
                        ]
                dist = merged
            # inv[0] is 0 and dist[0] is 0, so z[v][0] is 0
            z[v] = [q * dist[at * i % q] for i in inv]
    root = walk[-1][0]
    return nz_sum[root] + z[root][1]


def count_fixed(t: Tree, ctx: FqContext, alpha: Sequence[int], force: bool = False) -> int:
    """Exact number of (x, x') solutions with every coefficient fixed."""
    if len(alpha) != t.n:
        raise ValueError("one alpha value per vertex")
    _check_budget(t.n, 0, ctx.q, force)
    return _tree_sum(_walk(t), ctx, [_fixed_factor(ctx, a % ctx.q) for a in alpha])


class _Plan(NamedTuple):
    """What the oracle needs of one (tree, phi) at every q."""

    walk: Walk
    versal: tuple[int, ...]
    # the free vertices of every generic component, their genericity
    # patterns and the tied positions (free leaves after a sibling)
    generic: tuple[int, ...]
    patterns: list[GenericityPattern]
    tied: frozenset[int]


def _check_budget(n: int, versal: int, q: int, force: bool) -> None:
    """Raise :class:`GuardError`, unless ``force``, when q**(n + versal)
    exceeds the work budget or the tables of an n-vertex count, the inverse
    table and two rows of length q per vertex, exceed the table budget."""
    if force:
        return
    size = q ** (n + versal)
    if size > WORK_BUDGET:
        raise GuardError(
            f"q**(n + versal parameters) = {size} exceeds the work budget"
        )
    entries = (2 * n + 1) * q
    if entries > TABLE_BUDGET:
        raise GuardError(
            f"(2n + 1) * q = {entries} table entries exceed the table budget"
        )


def _plan(t: Tree, resolved: ResolvedPhi, primes: Sequence[int], force: bool) -> _Plan:
    """Fix the tree's maximum matching and collect one sweep over the free
    vertices of every generic component, in partition order, with all their
    patterns; free leaves with one neighbor sit next to each other, tied to
    the one before.

    The budgets are checked at every q in ``primes`` first: the patterns
    walk every subset of each generic component's reds, which alone can
    take longer than the work budget allows."""
    coloring, partition, assignment, kinds = resolved
    free = [v for v, m in enumerate(t.mate) if m < 0]
    if any(coloring.colors[v] is not Color.RED for v in free):
        raise AssertionError("a non-red vertex escaped the maximum matching")
    versal = tuple(v for v in free if kinds[v] is PhiKind.VERSAL)
    for q in primes:
        _check_budget(t.n, len(versal), q, force)
    # a free leaf is anchored at its neighbor, which is covered and in its
    # own component, so it joins its siblings and no other free vertex
    anchor = [nb[0] if len(nb) == 1 else v for v, nb in enumerate(t.neighbors)]
    generic: list[int] = []
    patterns: list[GenericityPattern] = []
    for comp, kind in zip(partition, assignment.kinds):
        if kind is PhiKind.GENERIC:
            generic += sorted(
                (v for v in comp.reds if t.mate[v] < 0), key=anchor.__getitem__
            )
            patterns += genericity_patterns(comp)
    tied = frozenset(
        i for i in range(1, len(generic)) if anchor[generic[i]] == anchor[generic[i - 1]]
    )
    return _Plan(_walk(t), versal, tuple(generic), patterns, tied)


def generic_tuples(
    patterns: Sequence[GenericityPattern],
    vertices: Sequence[int],
    ctx: FqContext,
    tied: Collection[int],
) -> Iterator[tuple[int, ...]]:
    """Yield the nonzero value tuples on ``vertices`` that pass
    ``is_generic`` and whose value at each position in ``tied`` (none is 0)
    is at least the one before it, in
    ``itertools.product(range(1, q), repeat=len(vertices))`` order.  With
    interchangeable vertices tied, that is one tuple per orbit
    representative.  The walk is lazy, holding one prefix and
    O(len(vertices)) values at a time, so the generic parameters of all
    components are swept as one walk over every generic free vertex:
    patterns on disjoint vertices make it the product of the per-component
    walks, and a component with no passing value ends it with nothing
    yielded.

    Each pattern is mapped onto the positions of ``vertices`` (other
    members carry the trivial value 1, so they drop out) and tested as soon
    as its last member has a value, which prunes every tuple extending a
    failing prefix.  Every admissible set S holds an unmatched vertex, so
    no pattern maps onto no position: a matched red s in S is matched to a
    green g_s seeing exactly two members of S, s -> g_s is injective, and S
    and those greens span a forest, so there are at most |S| - 1 of them.
    """
    q, inv = ctx.q, ctx.inv
    k = len(vertices)
    position = {v: i for i, v in enumerate(vertices)}
    # due[i]: (target, slots) of the patterns whose last member is at i;
    # slot 2i holds the value at position i and slot 2i + 1 its inverse
    due: list[list[tuple[int, list[int]]]] = [[] for _ in range(k)]
    for parity, signed in patterns:
        target = (q - 1 if parity else 1) % q
        slots = [2 * position[v] + (sg < 0) for v, sg in signed if v in position]
        due[max(slots) // 2].append((target, slots))
    values = [0] * (2 * k)

    def extend(i: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if i == k:
            yield prefix
            return
        for a in range(prefix[-1] if i in tied else 1, q):
            values[2 * i], values[2 * i + 1] = a, inv[a]
            for target, slots in due[i]:
                prod = 1
                for s in slots:
                    prod = prod * values[s] % q
                if prod == target:
                    break
            else:
                yield from extend(i + 1, prefix + (a,))

    return extend(0, ())


def count_points(
    t: Tree,
    phi: PhiSpec,
    ctx: FqContext,
    force: bool = False,
) -> int | None:
    """Exact point count for one generic/versal choice.

    Fixes a maximum matching, sums over all invertible values of the versal
    parameters in closed form, and sweeps the generic parameters of all
    components, as one lazy walk in ``itertools.product`` order over every
    generic free vertex, over one passing tuple per orbit of the swaps of
    sibling free leaves, asserting the count does not depend on the tuple.
    Those swaps are automorphisms fixing everything the count and the
    genericity test read, so the tuples of one orbit pass and count alike,
    and the check over representatives is the check over every tuple.
    Returns None when no tuple passes, which tiny fields allow: a skip, not
    a failure.
    """
    return _count_plan(_plan(t, resolve_tree_phi(t, phi), (ctx.q,), force), ctx)


def _count_plan(plan: _Plan, ctx: FqContext) -> int | None:
    """:func:`count_points` for a plan whose budgets were checked at ctx.q."""
    q = ctx.q
    factor = [_fixed_factor(ctx, 1)] * len(plan.walk)
    for v in plan.versal:
        factor[v] = _versal_factor(q)
    counts = set()
    for values in generic_tuples(plan.patterns, plan.generic, ctx, plan.tied):
        for v, a in zip(plan.generic, values):
            factor[v] = _fixed_factor(ctx, a)
        counts.add(_tree_sum(plan.walk, ctx, factor))
    if not counts:
        return None
    if len(counts) > 1:
        raise ConstancyError(
            f"generic point count depends on the parameters: {sorted(counts)}"
        )
    return counts.pop()


class PrimeCheck(NamedTuple):
    q: int
    status: str  # "ok", "mismatch" or "skipped"
    oracle: int | None
    expected: int


class VerifyReport(NamedTuple):
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
    (:func:`count_points` at each prime, with phi resolved and the plan
    built once for all).  The budgets are checked at every prime before any
    is counted; an empty ``primes`` is refused, since it would pass with no
    check."""
    if not primes:
        raise ValueError("verify_polynomial needs at least one prime")
    resolved = resolve_tree_phi(t, phi)
    poly = _count_resolved(t, resolved)
    contexts = [FqContext(q) for q in primes]
    plan = _plan(t, resolved, primes, force)
    checks = []
    for ctx in contexts:
        q = ctx.q
        expected = poly(q)
        got = _count_plan(plan, ctx)
        if got is None:
            checks.append(PrimeCheck(q, "skipped", None, expected))
        elif got == expected:
            checks.append(PrimeCheck(q, "ok", got, expected))
        else:
            checks.append(PrimeCheck(q, "mismatch", got, expected))
    return VerifyReport(tuple(checks))
