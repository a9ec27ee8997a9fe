"""The exact F_q point counter and its agreement with the polynomials."""

from __future__ import annotations

import itertools
import random

import pytest

from treecount.coloring import Color, canonical_coloring, red_green_components
from treecount.counting import PhiKind, all_phi_assignments, count_polynomial
from treecount.families import d_tree, linear_tree, star_tree
import treecount.fqoracle as fqoracle
from treecount.fqoracle import (
    NO_GENERIC_PARAMETERS,
    ConstancyError,
    FqContext,
    GuardError,
    NoGenericParameters,
    assert_edge_cover,
    count_fixed,
    count_points,
    jump_alpha,
    verify_polynomial,
)
from treecount.groupoid import genericity_check
from treecount.matchings import maximum_matching, uncovered_vertices
from treecount.trees import Tree, relabel
from conftest import colored, trees_up_to


def test_context_requires_prime():
    with pytest.raises(ValueError):
        FqContext(6)
    assert FqContext(7).q == 7


def test_count_fixed_examples():
    single = Tree(1, ())
    assert count_fixed(single, FqContext(2), [1]) == 3
    assert count_fixed(single, FqContext(3), [1]) == 2
    assert count_fixed(linear_tree(2), FqContext(2), [1, 1]) == 5


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
    reading each (zero_row, w) pair point by point."""
    total = 0
    for xs in itertools.product(range(q), repeat=t.n):
        term = 1
        for v, (zero_row, w) in enumerate(factor):
            if xs[v]:
                term *= w
            else:
                prod = 1
                for u in t.neighbors[v]:
                    prod = prod * xs[u] % q
                term *= zero_row[prod]
        total += term
    return total


def test_tree_sum_matches_naive_on_every_factor_shape():
    """Fixed, versal and edge-cover-forced factors mixed at random, plus
    arbitrary ones, on every tree rooted at every vertex (the walk roots at
    vertex 0).  Point counts barely depend on the coefficients, so a kernel
    reading a zero row at the wrong P shows only with arbitrary rows on
    trees deep enough below the root."""
    rng = random.Random(8)
    for base in trees_up_to(5):
        for root in range(base.n):
            perm = list(range(base.n))
            perm[0], perm[root] = root, 0
            t = relabel(base, perm)
            walk = fqoracle._walk(t)
            for q in (2, 3, 5, 7) if t.n <= 3 else (2, 3, 5):
                ctx = FqContext(q)
                for _ in range(4):
                    factor = []
                    for _ in range(t.n):
                        shape = rng.choice(("fixed", "versal", "forced", "arbitrary"))
                        if shape == "versal":
                            factor.append(fqoracle._versal_factor(q))
                        elif shape == "arbitrary":
                            zero_row = [0] + [rng.randrange(4) for _ in range(1, q)]
                            factor.append((zero_row, rng.randrange(4)))
                        else:
                            zero_row, w = fqoracle._fixed_factor(q, rng.randrange(q))
                            factor.append((zero_row, w if shape == "fixed" else 0))
                    assert fqoracle._tree_sum(walk, ctx, factor) == naive_tree_sum(
                        t, q, factor
                    ), (t.edges, q, factor)
    with pytest.raises(ValueError):
        fqoracle._tree_sum(fqoracle._walk(Tree(1, ())), FqContext(3), [([1, 0, 0], 1)])


def test_count_points_examples():
    single = Tree(1, ())
    assert count_points(single, "versal", FqContext(2)) == 3
    assert isinstance(
        count_points(single, "generic", FqContext(2)), NoGenericParameters
    )
    assert count_points(single, "generic", FqContext(3)) == 2
    assert count_points(linear_tree(3), "generic", FqContext(5)) == 124
    assert count_points(d_tree(4), "generic", FqContext(5)) == 576


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


def test_verify_all_small_trees():
    """Every (tree, phi) pair with n <= 7 at q in {2, 3, 5, 7}."""
    for t in trees_up_to(7):
        _, part = colored(t)
        for phi in all_phi_assignments(part):
            rep = verify_polynomial(t, phi, [2, 3, 5, 7], force=True)
            assert rep.passed, (t.edges, phi, rep)
            assert any(c.status == "ok" for c in rep.checks)


def test_verify_colors_once(coloring_calls):
    """verify_polynomial resolves phi once: one coloring serves both the
    polynomial and the oracle's plan."""
    rep = verify_polynomial(d_tree(6), "generic", [3, 5, 7])
    assert rep.passed
    assert coloring_calls == [6]


def test_generic_constancy_is_asserted():
    """All passing tuples must give one number; the sweep would raise
    otherwise.  Run a case with many passing tuples to exercise it."""
    got = count_points(star_tree(4), "generic", FqContext(7))
    expected = count_polynomial(star_tree(4), "generic")(7)
    assert got == expected


def _passing_combinations(t, phi, q):
    """Product over the generic components of their passing tuples, from
    itertools.product filtered by genericity_check."""
    _, part = colored(t)
    free = uncovered_vertices(t, maximum_matching(t))
    combos = 1
    for comp, kind in zip(part, phi.kinds):
        vertices = [v for v in free if v in comp.vertices]
        if kind is not PhiKind.GENERIC or not vertices:
            continue
        combos *= sum(
            genericity_check(comp, dict(zip(vertices, values)), q)
            for values in itertools.product(range(1, q), repeat=len(vertices))
        )
    return combos


def test_one_tree_sum_per_passing_tuple(monkeypatch):
    """count_points skips no tuple: one transfer sum per combination of
    passing tuples, none when a component has no passing tuple."""
    calls = []
    tree_sum = fqoracle._tree_sum

    def counted(walk, ctx, factor):
        calls.append(None)
        return tree_sum(walk, ctx, factor)

    monkeypatch.setattr(fqoracle, "_tree_sum", counted)
    for t in trees_up_to(6):
        _, part = colored(t)
        for phi in all_phi_assignments(part):
            for q in (2, 3, 5):
                calls.clear()
                got = count_points(t, phi, FqContext(q))
                combos = _passing_combinations(t, phi, q)
                assert len(calls) == combos, (t.edges, phi, q)
                assert (got is NO_GENERIC_PARAMETERS) == (combos == 0)


def test_constancy_error_fires(monkeypatch):
    """A transfer sum that depends on the generic tuple must be caught."""
    monkeypatch.setattr(
        fqoracle,
        "_tree_sum",
        lambda walk, ctx, factor: tuple(tuple(zero_row) for zero_row, _ in factor),
    )
    with pytest.raises(ConstancyError):
        count_points(star_tree(4), "generic", FqContext(7))


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
                assert got is NO_GENERIC_PARAMETERS
            assert all(per_tuple[values] == got for values in passing)
