"""The exact F_q point counter and its agreement with the polynomials."""

from __future__ import annotations

import itertools
import random
import tracemalloc
from typing import Sequence

import pytest

from treecount.coloring import Color, canonical_coloring, red_green_components
from treecount.counting import PhiKind, all_phi_assignments, count_polynomial
from treecount.families import d_tree, linear_tree, star_tree
import treecount.fqoracle as fqoracle
from treecount.fqoracle import (
    ConstancyError,
    FqContext,
    GuardError,
    PRIMALITY_BOUND,
    _fixed_factor,
    _is_prime,
    _tree_sum,
    _walk,
    count_fixed,
    count_points,
    verify_polynomial,
)
from treecount.groupoid import genericity_check, genericity_patterns, is_generic
from treecount.matchings import admissible_sets, maximum_matching, uncovered_vertices
from treecount.trees import Tree, parse_graph6
from conftest import colored, trees_up_to
from test_trees import relabel


def assert_edge_cover(t: Tree, ctx: FqContext, alpha: Sequence[int]) -> None:
    """Check that no counted solution has both ends of an edge at zero."""
    q = ctx.q
    walk = _walk(t)
    factor = [_fixed_factor(ctx, a % q) for a in alpha]
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
    (u included) by the old value at u, which must be a unit mod q."""
    if not t.has_edge(u, v):
        raise ValueError(f"{u}-{v} is not an edge")
    if alpha[u] % q == 0:
        raise ValueError(f"coefficient at {u} is 0 mod {q}, so it has no inverse")
    inv = pow(alpha[u], q - 2, q)
    out = [a % q for a in alpha]
    for w in t.neighbors[v]:
        out[w] = out[w] * inv % q
    return out


def test_context_requires_prime():
    # prime powers are refused too: the arithmetic is mod q
    for q in (0, 1, 4, 6, 8, 9):
        with pytest.raises(ValueError):
            FqContext(q)
    assert FqContext(7).q == 7
    # the inverse table is built on first read, not by the constructor
    ctx = FqContext(1_000_003)
    assert "inv" not in vars(ctx)


def _trial_division(q: int) -> bool:
    return q >= 2 and all(q % d for d in range(2, int(q**0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [q for q in range(-3, 10**5) if _is_prime(q) != _trial_division(q)] == []


def test_is_prime_rejects_strong_pseudoprimes():
    # 561 is a Carmichael number; each other q is the least strong
    # pseudoprime to every prime base up to some bound, for growing bounds;
    # the last passes every base up to 37, so only base 41 finds it
    for q in (
        561,
        2047,
        1373653,
        25326001,
        3215031751,
        2152302898747,
        3474749660383,
        341550071728321,
        3825123056546413051,
        318665857834031151167461,
    ):
        assert not _is_prime(q), q


def test_is_prime_settles_large_primes_and_refuses_past_its_bound():
    assert _is_prime(10**18 + 3) and not _is_prime(10**18 + 1)
    assert not _is_prime(PRIMALITY_BOUND - 1)  # still decided, not refused
    for q in (PRIMALITY_BOUND, 10**30):
        with pytest.raises(ValueError, match=str(PRIMALITY_BOUND)):
            _is_prime(q)
        with pytest.raises(ValueError, match=str(PRIMALITY_BOUND)):
            FqContext(q)


def test_count_fixed_examples():
    single = Tree(1, ())
    assert count_fixed(single, FqContext(2), [1]) == 3
    assert count_fixed(single, FqContext(3), [1]) == 2
    assert count_fixed(linear_tree(2), FqContext(2), [1, 1]) == 5
    with pytest.raises(ValueError, match="one alpha value per vertex"):
        count_fixed(linear_tree(3), FqContext(5), [1, 1])


def test_count_fixed_matches_naive_enumeration():
    """Cross-check the transfer sum against a dead-simple double loop."""
    rng = random.Random(1)
    for t in list(trees_up_to(5)):
        for q in (2, 3, 5) if t.n <= 4 else (2, 3):
            alpha = [rng.randrange(1, q) for _ in range(t.n)]
            naive = 0
            for xs in itertools.product(range(q), repeat=t.n):
                for xps in itertools.product(range(q), repeat=t.n):
                    ok = True
                    for i in range(t.n):
                        prod = 1
                        for j in t.neighbors[i]:
                            prod = prod * xs[j] % q
                        if (xs[i] * xps[i] - 1 - alpha[i] * prod) % q:
                            ok = False
                            break
                    naive += ok
            assert count_fixed(t, FqContext(q), alpha) == naive


def naive_tree_sum(t, q, factor):
    """Sum over x in F_q**n of prod_v factor[v] at (x_v, neighbor product),
    reading each (at, w) pair point by point: w at x_v != 0; at x_v = 0, q
    at the unit product P = at, or at every unit P when at is 0, else 0."""
    total = 0
    for xs in itertools.product(range(q), repeat=t.n):
        term = 1
        for v, (at, w) in enumerate(factor):
            if xs[v]:
                term *= w
            else:
                prod = 1
                for u in t.neighbors[v]:
                    prod = prod * xs[u] % q
                term *= q if prod and at in (0, prod) else 0
        total += term
    return total


def test_tree_sum_matches_naive_on_every_factor_shape():
    """Fixed, versal and edge-cover-forced factors mixed at random, plus
    random (at, w) pairs, on every tree rooted at every vertex (the walk
    roots at vertex 0).  The other vertices are labelled in both orders,
    so children come in both orders.  At q = 7 the n = 4 trees meet every
    shortcut of the transfer sum: a childless vertex and child, a flat
    factor and a first child with children; the full convolution needs
    n >= 5 (next test)."""
    rng = random.Random(8)
    for base in trees_up_to(5):
        for root, ascending in itertools.product(range(base.n), (True, False)):
            rest = sorted(set(range(base.n)) - {root}, reverse=not ascending)
            perm = [0] * base.n
            for new, old in enumerate(rest, 1):
                perm[old] = new
            t = relabel(base, perm)
            walk = fqoracle._walk(t)
            for q in (2, 3, 5, 7) if t.n <= 4 else (2, 3, 5):
                ctx = FqContext(q)
                for _ in range(4):
                    factor = []
                    for _ in range(t.n):
                        shape = rng.choice(("fixed", "versal", "forced", "random"))
                        if shape == "versal":
                            factor.append(fqoracle._versal_factor(q))
                        elif shape == "random":
                            at = rng.choice([None, *range(q)])
                            factor.append((at, rng.randrange(4)))
                        else:
                            at, w = fqoracle._fixed_factor(ctx, rng.randrange(q))
                            factor.append((at, w if shape == "fixed" else 0))
                    assert fqoracle._tree_sum(walk, ctx, factor) == naive_tree_sum(
                        t, q, factor
                    ), (t.edges, q, factor)


def test_tree_sum_convolves_branching_children():
    """Factors with a unit ``at`` and w >= 1 on the trees where the full
    convolution runs: a vertex, the root or one below it, with two children
    that both have a child.  A flat or zero factor on the way would skip
    the convolution or blank the rows it reads.  Reading a child's row at
    x * p instead of x / p, or dist at at * xp instead of at / xp, shows
    only here, and only at q >= 5, where some unit is not its own inverse.
    A parent that sums the convolving vertex's z row over every unit cannot
    tell at / xp from at * xp, so the last tree gives that vertex a
    sibling, 6 below the root 0."""
    rng = random.Random(17)
    for edges, branching, primes in (
        (((0, 1), (1, 2), (0, 3), (3, 4)), (0, (1, 3)), (5, 7)),
        (((0, 1), (1, 2), (1, 4), (2, 3), (4, 5)), (1, (2, 4)), (5,)),
        (((0, 1), (1, 2), (1, 4), (2, 3), (4, 5), (0, 6)), (1, (2, 4)), (5,)),
    ):
        t = Tree(len(edges) + 1, edges)
        walk = fqoracle._walk(t)
        assert branching in walk
        for q in primes:
            ctx = FqContext(q)
            for _ in range(20):
                factor = [
                    (rng.randrange(1, q), rng.randrange(1, 4)) for _ in range(t.n)
                ]
                assert fqoracle._tree_sum(walk, ctx, factor) == naive_tree_sum(
                    t, q, factor
                ), (edges, q, factor)


def test_large_field_memory_is_linear_in_q():
    """The oracle keeps no q x q table: the 1-vertex generic count at
    q = 1009 allocates well under the 8 MB that one table of q rows of q
    entries would take."""
    ctx = FqContext(1009)
    tracemalloc.start()
    try:
        got = count_points(Tree(1, ()), "generic", ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == 1008
    assert peak < 5 * 2**20, peak


def test_count_points_examples():
    single = Tree(1, ())
    assert count_points(single, "versal", FqContext(2)) == 3
    assert count_points(single, "generic", FqContext(2)) is None
    assert count_points(single, "generic", FqContext(3)) == 2
    assert count_points(linear_tree(3), "generic", FqContext(5)) == 124
    assert count_points(d_tree(4), "generic", FqContext(5)) == 576
    # two generic components swept in one walk: at q = 3 the first (FiaC?)
    # or the second (HhI?GGC) has no passing tuple, so the walk yields none
    for g6, counts in (("FiaC?", (69824, 777384)), ("HhI?GGC", (1749824, 38117736))):
        t = parse_graph6(g6)
        assert len(colored(t)[1]) == 2
        for q in (2, 3):
            assert count_points(t, "generic", FqContext(q)) is None
        for q, count in zip((5, 7), counts):
            assert count_points(t, "generic", FqContext(q)) == count


def test_jump_invariance_of_counts():
    """Jumping the coefficients is an isomorphism, so counts agree."""
    rng = random.Random(9)
    for t in trees_up_to(6):
        c = canonical_coloring(t)
        if t.n == 1:
            continue
        for q in (3, 5):
            alpha = [rng.randrange(1, q) for _ in range(t.n)]
            base = count_fixed(t, FqContext(q), alpha)
            for _ in range(4):
                u = rng.randrange(t.n)
                nbrs = [
                    v
                    for v in t.neighbors[u]
                    if {c.colors[u], c.colors[v]} == {Color.RED, Color.GREEN}
                    or (
                        c.colors[u] is Color.ORANGE
                        and tuple(sorted((u, v))) in c.dominoes
                    )
                ]
                if not nbrs:
                    continue
                v = rng.choice(nbrs)
                alpha = jump_alpha(t, alpha, u, v, q)
                assert count_fixed(t, FqContext(q), alpha) == base


def test_jump_alpha_rejects_a_zero_coefficient():
    """pow(0, q - 2, q) is 0, so a zero at u would map v's neighbours to 0."""
    assert jump_alpha(linear_tree(3), [2, 1, 1], 0, 1, 5) == [1, 1, 3]
    for alpha in ([0, 1, 1], [5, 1, 1]):
        with pytest.raises(ValueError, match="0 mod 5"):
            jump_alpha(linear_tree(3), alpha, 0, 1, 5)


def test_edge_cover_property():
    """No solution has both ends of an edge at zero (n <= 5 sweep)."""
    rng = random.Random(13)
    for t in trees_up_to(5):
        for q in (2, 3, 5):
            alpha = [rng.randrange(1, q) for _ in range(t.n)]
            assert_edge_cover(t, FqContext(q), alpha)


def test_verify_examples():
    rep = verify_polynomial(linear_tree(2), None, [2, 3, 5])
    assert rep.passed and all(c.status == "ok" for c in rep.checks)
    rep = verify_polynomial(Tree(1, ()), "generic", [2])
    assert rep.passed and rep.checks[0].status == "skipped"
    rep = verify_polynomial(d_tree(4), "generic", [3, 5])
    assert rep.passed
    assert [c.status for c in rep.checks] == ["skipped", "ok"]
    assert rep.checks[1].oracle == 576
    # with no prime there is no check, and the report would pass vacuously
    with pytest.raises(ValueError, match="at least one prime"):
        verify_polynomial(linear_tree(2), None, [])


def test_verify_all_small_trees():
    """Every (tree, phi) pair with n <= 7 at q in {2, 3, 5, 7}."""
    for t in trees_up_to(7):
        _, part = colored(t)
        for phi in all_phi_assignments(part):
            rep = verify_polynomial(t, phi, [2, 3, 5, 7], force=True)
            assert rep.passed, (t.edges, phi, rep)
            assert any(c.status == "ok" for c in rep.checks)


def test_verify_colors_once(coloring_calls, role_passes):
    """verify_polynomial resolves phi once: one role pass serves both the
    polynomial and the oracle's plan, and no :class:`Coloring` is built."""
    rep = verify_polynomial(d_tree(6), "generic", [3, 5, 7])
    assert rep.passed
    assert role_passes == [6]
    assert coloring_calls == []


def test_generic_constancy_is_asserted():
    """All passing tuples must give one number; the sweep would raise
    otherwise.  Run a case with many passing tuples to exercise it."""
    got = count_points(star_tree(4), "generic", FqContext(7))
    expected = count_polynomial(star_tree(4), "generic")(7)
    assert got == expected


def sibling_groups(t, vertices):
    """Positions in ``vertices`` of its leaves, grouped by their one neighbor."""
    groups = {}
    for i, v in enumerate(vertices):
        if len(t.neighbors[v]) == 1:
            groups.setdefault(t.neighbors[v][0], []).append(i)
    return list(groups.values())


def representative(values, groups):
    """``values`` with the values on each group's positions sorted."""
    out = list(values)
    for group in groups:
        for i, a in zip(group, sorted(values[i] for i in group)):
            out[i] = a
    return tuple(out)


def _passing_orbits(t, phi, q):
    """Product over the generic components of the number of orbits of their
    passing tuples under swaps of sibling free leaves: the distinct
    representatives of itertools.product filtered by genericity_check."""
    _, part = colored(t)
    free = uncovered_vertices(t, maximum_matching(t))
    orbits = 1
    for comp, kind in zip(part, phi.kinds):
        vertices = [v for v in free if v in comp.vertices]
        if kind is not PhiKind.GENERIC or not vertices:
            continue
        groups = sibling_groups(t, vertices)
        orbits *= len({
            representative(values, groups)
            for values in itertools.product(range(1, q), repeat=len(vertices))
            if genericity_check(comp, dict(zip(vertices, values)), q)
        })
    return orbits


def test_one_tree_sum_per_orbit(monkeypatch):
    """count_points sums once per orbit of the passing tuples under swaps of
    sibling free leaves, and none when a component has no passing tuple.
    Every tree also runs under a shuffled labelling, and the last tree puts
    free vertex 3 between the sibling leaves 0 and 4 in label order (n = 7
    is the first size at which a free vertex that is no sibling shares a
    component with sibling leaves)."""
    calls = []
    tree_sum = fqoracle._tree_sum

    def counted(walk, ctx, factor):
        calls.append(None)
        return tree_sum(walk, ctx, factor)

    monkeypatch.setattr(fqoracle, "_tree_sum", counted)
    rng = random.Random(21)
    trees = []
    for t in trees_up_to(7):
        perm = list(range(t.n))
        rng.shuffle(perm)
        trees += [t, relabel(t, perm)]
    trees.append(Tree(7, ((3, 1), (3, 5), (1, 2), (1, 0), (1, 4), (5, 6))))
    for t in trees:
        _, part = colored(t)
        for phi in all_phi_assignments(part):
            for q in (2, 3, 5):
                calls.clear()
                got = count_points(t, phi, FqContext(q))
                orbits = _passing_orbits(t, phi, q)
                assert len(calls) == orbits, (t.edges, phi, q)
                assert (got is None) == (orbits == 0)


def test_every_admissible_set_holds_an_unmatched_vertex():
    """What the sweep relies on: every red-green component and every
    admissible set holds a vertex that ``t.mate`` leaves unmatched, so no
    genericity pattern drops out entirely and no generic component has an
    empty tuple of parameters."""
    sets = 0
    for t in trees_up_to(12):
        free = {v for v, m in enumerate(t.mate) if m < 0}
        for comp in colored(t)[1]:
            assert free.intersection(comp.vertices), t.edges
            for adm in admissible_sets(comp):
                assert free.intersection(adm.vertices), (t.edges, adm.vertices)
                sets += 1
    assert sets == 6659


def test_sibling_swaps_keep_genericity_and_count():
    """What lets the sweep skip all but one tuple per orbit: a tuple passing
    genericity on every component has a representative that passes too and
    has the same count_fixed."""
    for t in trees_up_to(7):
        _, part = colored(t)
        free = uncovered_vertices(t, maximum_matching(t))
        groups = sibling_groups(t, free)
        patterns = [genericity_patterns(comp) for comp in part]

        def count_at(values, ctx):
            alpha = [1] * t.n
            for v, a in zip(free, values):
                alpha[v] = a
            return count_fixed(t, ctx, alpha)

        for q in (3, 5, 7):
            ctx = FqContext(q)
            by_representative = {}
            for values in itertools.product(range(1, q), repeat=len(free)):
                alpha = dict(zip(free, values))
                if not all(is_generic(p, alpha, q) for p in patterns):
                    continue
                rep = representative(values, groups)
                if rep not in by_representative:
                    rep_alpha = dict(zip(free, rep))
                    assert all(is_generic(p, rep_alpha, q) for p in patterns)
                    by_representative[rep] = count_at(rep, ctx)
                assert count_at(values, ctx) == by_representative[rep], (
                    t.edges, q, values
                )


def test_constancy_error_fires(monkeypatch):
    """A transfer sum that depends on the generic tuple must be caught."""
    monkeypatch.setattr(
        fqoracle,
        "_tree_sum",
        lambda walk, ctx, factor: tuple(factor),
    )
    with pytest.raises(ConstancyError):
        count_points(star_tree(4), "generic", FqContext(7))


def test_constancy_error_fires_between_representatives(monkeypatch):
    """A sum that is constant on every orbit but differs between
    representatives must still be caught.  Free vertex 0 and the sibling
    leaves 3 and 4 of vertex 1 share one generic component; the mutant adds
    the unit at which vertex 0's factor is q, which swapping 3 and 4 leaves
    as it is."""
    t = Tree(7, ((0, 1), (0, 5), (1, 2), (1, 3), (1, 4), (5, 6)))
    tree_sum = fqoracle._tree_sum
    monkeypatch.setattr(
        fqoracle,
        "_tree_sum",
        lambda walk, ctx, factor: tree_sum(walk, ctx, factor) + factor[0][0],
    )
    with pytest.raises(ConstancyError):
        count_points(t, "generic", FqContext(7))


def test_guard_and_force():
    big = linear_tree(13)
    with pytest.raises(GuardError):
        count_fixed(big, FqContext(7), [1] * 13)
    with pytest.raises(GuardError):
        count_points(star_tree(6), "versal", FqContext(31))
    # force runs anyway at feasible sizes
    assert count_points(
        star_tree(6), "versal", FqContext(3), force=True
    ) == count_polynomial(star_tree(6), "versal")(3)


def test_guard_fires_before_the_genericity_patterns(monkeypatch):
    """The work budget is checked at every requested q before the patterns,
    which walk all 2**17 red subsets of this star, are built."""

    def no_patterns(component):
        raise AssertionError("genericity patterns built for a job over budget")

    monkeypatch.setattr(fqoracle, "genericity_patterns", no_patterns)
    with pytest.raises(GuardError):
        count_points(star_tree(17), "generic", FqContext(5))
    # 2**18 is within the budget, 5**18 is not
    with pytest.raises(GuardError):
        verify_polynomial(star_tree(17), "generic", [2, 5])


def test_table_budget_fires_before_any_table(monkeypatch):
    """q**n passes the work budget for one vertex at q = 999999937, but its
    inverse table and rows would take tens of GB: every entry point refuses
    the job before it reads ``FqContext.inv``."""

    def no_table(ctx):
        raise AssertionError("built a table for a job over the table budget")

    q = 999999937
    single = Tree(1, ())
    monkeypatch.setattr(FqContext, "inv", property(no_table))
    with pytest.raises(GuardError):
        count_points(single, "generic", FqContext(q))
    with pytest.raises(GuardError):
        count_fixed(single, FqContext(q), [1])
    with pytest.raises(GuardError):
        verify_polynomial(single, "generic", [q])


def test_table_budget_bound(monkeypatch):
    """(2n + 1) * q entries at the budget still run; one prime more does not,
    unless forced."""
    monkeypatch.setattr(fqoracle, "TABLE_BUDGET", 3 * 1009)
    single = Tree(1, ())
    assert count_points(single, "generic", FqContext(1009)) == 1008
    with pytest.raises(GuardError):
        count_points(single, "generic", FqContext(1013))
    assert count_points(single, "generic", FqContext(1013), force=True) == 1012
    # two vertices hold five rows: 5 * 601 is within 3 * 1009, 5 * 607 is not
    assert count_fixed(linear_tree(2), FqContext(601), [1, 1]) == 601**2 + 1
    with pytest.raises(GuardError):
        count_fixed(linear_tree(2), FqContext(607), [1, 1])


def test_count_points_matches_count_fixed_per_tuple():
    """Versal counts sum count_fixed over every free-parameter tuple, and
    generic counts equal count_fixed at every tuple passing genericity."""
    for t in [linear_tree(3), linear_tree(5), d_tree(4), star_tree(3)]:
        _, part = colored(t)
        free = uncovered_vertices(t, maximum_matching(t))
        for q in (3, 5):
            ctx = FqContext(q)
            per_tuple = {}
            for values in itertools.product(range(1, q), repeat=len(free)):
                alpha = [1] * t.n
                for v, a in zip(free, values):
                    alpha[v] = a
                per_tuple[values] = count_fixed(t, ctx, alpha)
            assert count_points(t, "versal", ctx) == sum(per_tuple.values())
            passing = [
                values
                for values in per_tuple
                if all(
                    genericity_check(comp, dict(zip(free, values)), q) for comp in part
                )
            ]
            got = count_points(t, "generic", ctx)
            if not passing:
                assert got is None
            assert all(per_tuple[values] == got for values in passing)
