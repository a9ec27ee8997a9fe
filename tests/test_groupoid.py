"""Jump calculus: normalization, rank and the genericity condition."""

from __future__ import annotations

import itertools
import random

import pytest

from treecount.coloring import (
    Color,
    RedGreenComponent,
    all_maximum_matchings,
    canonical_coloring,
)
from treecount.counting import resolve_tree_phi
import treecount.fqoracle as fqoracle
from treecount.families import linear_tree
from treecount.fqoracle import FqContext, generic_tuples
from treecount.groupoid import (
    CoefficientState,
    JumpError,
    genericity_check,
    genericity_patterns,
    is_generic,
    is_linear_extension,
    jump,
    jump_graph,
    normalize_to_matching,
    rank_profile,
)
from treecount.matchings import (
    admissible_sets,
    maximum_matching,
    uncovered_vertices,
)
from treecount.trees import Tree
from conftest import colored, trees_up_to


def formal_genericity(component: RedGreenComponent, covered: set[int]) -> bool:
    """Whether generic parameters exist formally (over a big enough field).

    With the trivial value 1 on covered red vertices, the alternating
    product over an admissible set is a monomial in the symbols of the
    uncovered members; members are distinct symbols with exponents +-1, so
    the monomial is non-constant exactly when the set meets the uncovered
    reds.
    """
    return all(
        any(v not in covered for v in adm.vertices)
        for adm in admissible_sets(component)
    )


# -- jumps ---------------------------------------------------------------------

def test_jump_disappears_over_a_leaf():
    p2 = linear_tree(2)
    c = canonical_coloring(p2)
    s = CoefficientState.from_dicts([{0: 1}, {}])
    assert jump(s, p2, c, 0, 1).support() == []


def test_jump_identity_on_trivial_coefficient():
    p3 = linear_tree(3)
    c = canonical_coloring(p3)
    s = CoefficientState.from_dicts([{}, {2: 4}, {}])
    assert jump(s, p3, c, 0, 1) == s


def test_jump_spreads_inverse():
    p3 = linear_tree(3)
    c = canonical_coloring(p3)
    s = CoefficientState.from_dicts([{0: 1}, {}, {}])
    out = jump(s, p3, c, 0, 1)
    assert out.vector(0) == {} and out.vector(2) == {0: -1}


def test_jump_keeps_untouched_entries():
    """A jump rebuilds only u and the other neighbors of v: every other
    vertex keeps its entry, the same tuple object."""
    p7 = linear_tree(7)
    c = canonical_coloring(p7)
    s = CoefficientState.initial(p7)
    out = jump(s, p7, c, 2, 3)
    assert out.vector(2) == {} and out.vector(4) == {2: -1, 4: 1}
    for w in (0, 1, 3, 5, 6):
        assert out.coeff[w] is s.coeff[w]


def test_disallowed_jump_kinds(figure_tree):
    p3 = linear_tree(3)
    c = canonical_coloring(p3)
    s = CoefficientState.initial(p3)
    with pytest.raises(JumpError):
        jump(s, p3, c, 0, 2)  # not an edge
    p4 = linear_tree(4)
    c4 = canonical_coloring(p4)
    with pytest.raises(JumpError):
        jump(CoefficientState.initial(p4), p4, c4, 1, 2)  # orange pair not a domino
    cf = canonical_coloring(figure_tree)
    with pytest.raises(JumpError):
        jump(CoefficientState.initial(figure_tree), figure_tree, cf, 1, 3)  # orange over green


# -- normalization ---------------------------------------------------------------

def test_normalize_examples():
    p3 = linear_tree(3)
    c = canonical_coloring(p3)
    out = normalize_to_matching(
        CoefficientState.initial(p3), p3, c, frozenset({(1, 2)})
    )
    assert out.support() == [0]
    assert out.vector(0) == {0: 1, 2: -1}
    # orange tree: everything dies
    p4 = linear_tree(4)
    c4 = canonical_coloring(p4)
    out4 = normalize_to_matching(
        CoefficientState.initial(p4), p4, c4, maximum_matching(p4)
    )
    assert out4.support() == []


def test_normalize_fixes_states_already_reduced():
    p3 = linear_tree(3)
    c = canonical_coloring(p3)
    m = frozenset({(1, 2)})
    s = CoefficientState.from_dicts([{0: 3}, {}, {}])
    assert normalize_to_matching(s, p3, c, m) == s


def test_normalize_rejects_non_maximum():
    p4 = linear_tree(4)
    c = canonical_coloring(p4)
    with pytest.raises(ValueError):
        normalize_to_matching(
            CoefficientState.initial(p4), p4, c, frozenset({(1, 2)})
        )
    with pytest.raises(ValueError, match="linear extension"):
        normalize_to_matching(
            CoefficientState.initial(p4), p4, c, maximum_matching(p4), order=[1, 3, 2, 0]
        )


def _linear_extensions(covered, succ, limit=6):
    """A few linear extensions, greedily rotating the ready set."""
    outs = []
    for salt in range(limit):
        order = []
        remaining = set(covered)
        indeg = {v: sum(1 for u in covered if v in succ[u]) for v in covered}
        ready = [v for v in covered if indeg[v] == 0]
        while ready:
            ready.sort()
            pick = ready.pop(salt % max(1, len(ready)) if ready else 0)
            order.append(pick)
            remaining.discard(pick)
            for w in succ[pick]:
                if w in remaining:
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        ready.append(w)
        outs.append(order)
    uniq = []
    for o in outs:
        if o not in uniq:
            uniq.append(o)
    return uniq


def test_normalization_support_and_order_independence():
    for t in trees_up_to(9):
        c, part = colored(t)
        for m in all_maximum_matchings(t):
            succ = jump_graph(t, m)
            covered = sorted(x for e in m for x in e)
            results = []
            for order in _linear_extensions(covered, succ):
                assert is_linear_extension(order, succ)
                out = normalize_to_matching(
                    CoefficientState.initial(t), t, c, m, order=order
                )
                results.append(out)
            assert len(set(results)) == 1
            out = results[0]
            assert set(out.support()) == set(uncovered_vertices(t, m))
            reds = {v for v in range(t.n) if c.colors[v] is Color.RED}
            for v in out.support():
                syms = out.symbols(v)
                assert syms <= reds
                comp = part.components[part.component_of(v)]
                assert syms <= set(comp.vertices)


def test_normalization_depends_only_on_red_symbols():
    """Starting with symbols only on red vertices changes nothing in the
    normalized exponents."""
    for t in trees_up_to(8):
        c, part = colored(t)
        m = maximum_matching(t)
        full = normalize_to_matching(CoefficientState.initial(t), t, c, m)
        red_only = CoefficientState.from_dicts(
            [
                {v: 1} if c.colors[v] is Color.RED else {}
                for v in range(t.n)
            ]
        )
        reduced = normalize_to_matching(red_only, t, c, m)
        assert reduced == full


# -- rank --------------------------------------------------------------------

def test_rank_profile_examples(figure_tree):
    _, part = colored(linear_tree(7))
    prof = rank_profile(part, [True])
    assert prof.rank == 1 and prof.versal_rank == 0
    _, part4 = colored(linear_tree(4))
    prof4 = rank_profile(part4, [])
    assert prof4.rank == 0 and prof4.versal_rank == 0
    d4 = Tree(4, ((0, 2), (1, 2), (2, 3)))
    _, partd = colored(d4)
    assert rank_profile(partd, [True]).rank == 2
    with pytest.raises(ValueError):
        rank_profile(partd, [True, False])


def test_rank_splits_dimension():
    from treecount.coloring import dimension

    for t in trees_up_to(9):
        _, part = colored(t)
        for flags in itertools.product((True, False), repeat=len(part)):
            prof = rank_profile(part, list(flags))
            assert prof.rank + prof.versal_rank == dimension(t)


# -- genericity -----------------------------------------------------------------

def test_genericity_examples():
    _, single = colored(Tree(1, ()))
    comp = single.components[0]
    assert genericity_check(comp, {0: 1}, 3) is True
    assert genericity_check(comp, {0: 2}, 3) is False  # 2 = -1 in F_3
    _, part = colored(linear_tree(3))
    comp3 = part.components[0]
    assert genericity_check(comp3, {0: 2, 2: 1}, 5) is True
    assert genericity_check(comp3, {0: 1, 2: 1}, 5) is False
    with pytest.raises(ValueError):
        genericity_check(comp3, {0: 0, 2: 1}, 5)


def test_generic_tuples_match_filtered_product():
    """The pruned walk yields exactly the tuples, in the same order, that
    itertools.product gives after filtering by the pointwise test
    (is_generic is what genericity_check runs, with the patterns built once
    per component here)."""
    for t in trees_up_to(7):
        _, part = colored(t)
        free = uncovered_vertices(t, maximum_matching(t))
        for comp in part:
            vertices = [v for v in free if v in comp.vertices]
            patterns = genericity_patterns(comp)
            for q in (2, 3, 5, 7):
                expected = [
                    values
                    for values in itertools.product(range(1, q), repeat=len(vertices))
                    if is_generic(patterns, dict(zip(vertices, values)), q)
                ]
                assert list(generic_tuples(patterns, vertices, FqContext(q), ())) == expected


def test_generic_tuples_keep_tied_positions_non_decreasing():
    """With the oracle's one sweep (the free vertices of every component of
    the all-generic phi, sibling groups tied), the walk yields exactly the
    filtered product restricted to values that do not decrease at the tied
    positions, in the same order."""
    for t in trees_up_to(8):
        plan = fqoracle._plan(t, resolve_tree_phi(t, "generic"), (), force=True)
        vertices, patterns, tied = plan.generic, plan.patterns, plan.tied
        for q in (2, 3, 5, 7):
            expected = [
                values
                for values in itertools.product(range(1, q), repeat=len(vertices))
                if all(values[i - 1] <= values[i] for i in tied)
                and is_generic(patterns, dict(zip(vertices, values)), q)
            ]
            got = list(generic_tuples(patterns, vertices, FqContext(q), tied))
            assert got == expected, (t.edges, q)


def test_generic_tuples_is_a_lazy_walk():
    """The walk is a generator: its first tuple comes without the other
    100**40 being built, and no vertices yield the one empty tuple."""
    assert not isinstance(generic_tuples([], [0], FqContext(3), ()), list)
    walk = generic_tuples([], range(40), FqContext(101), ())
    assert next(walk) == (1,) * 40
    assert list(generic_tuples([], [], FqContext(5), ())) == [()]


def _negated(pattern):
    parity, signed = pattern
    return parity, tuple((v, -sg) for v, sg in signed)


def test_genericity_patterns_one_per_global_flip_class():
    """An admissible set with b blocks has 2**b valid sign assignments, which
    pair up under the global flip; one pattern is kept per pair."""
    total = 0
    for t in trees_up_to(9):
        _, part = colored(t)
        for comp in part:
            patterns = genericity_patterns(comp)
            assert len(patterns) == sum(
                2 ** (len(a.blocks) - 1) for a in admissible_sets(comp)
            )
            assert len(set(patterns)) == len(patterns)
            assert not {_negated(p) for p in patterns} & set(patterns)
            total += len(patterns)
    assert total == 447


def test_genericity_patterns_imply_their_global_flips():
    """Adding the sign-negated copy of every pattern changes no verdict on
    any nonzero values of the component's reds."""
    for t in trees_up_to(8):
        _, part = colored(t)
        for comp in part:
            patterns = genericity_patterns(comp)
            both = patterns + [_negated(p) for p in patterns]
            for q in (2, 3, 5, 7):
                for values in itertools.product(range(1, q), repeat=len(comp.reds)):
                    point = dict(zip(comp.reds, values))
                    assert is_generic(patterns, point, q) == is_generic(both, point, q)


def test_genericity_flip_invariance():
    rng = random.Random(3)
    for t in trees_up_to(8):
        c, part = colored(t)
        for comp in part:
            alpha = {v: rng.randrange(1, 7) for v in comp.reds}
            base = genericity_check(comp, alpha, 7)
            # inverting every value flips the sign of every admissible product
            flipped = {v: pow(a, 5, 7) for v, a in alpha.items()}
            assert genericity_check(comp, flipped, 7) == base


def test_genericity_preserved_under_jumps():
    """Numeric jumps along allowed moves keep the predicate constant."""
    rng = random.Random(5)
    for t in trees_up_to(7):
        c, part = colored(t)
        for comp in part:
            if len(comp.vertices) == 1:
                continue
            for q in (5, 7):
                for _ in range(5):
                    alpha = {v: rng.randrange(1, q) for v in comp.reds}
                    before = genericity_check(comp, alpha, q)
                    # jump a random red over a green neighbor inside the component
                    u = rng.choice(comp.reds)
                    greens = [
                        w for w in t.neighbors[u] if c.colors[w] is Color.GREEN
                    ]
                    v = rng.choice(greens)
                    inv = pow(alpha[u], q - 2, q)
                    after_alpha = dict(alpha)
                    for w in t.neighbors[v]:
                        if w in after_alpha:
                            after_alpha[w] = after_alpha[w] * inv % q
                    # the jumped coefficient moves to 1; reds keep nonzero values
                    assert after_alpha[u] == 1
                    assert genericity_check(comp, after_alpha, q) == before


def test_formal_genericity_always_holds_with_a_maximum_matching():
    """Every admissible set meets the reds the matching misses, so generic
    parameters exist formally."""
    for t in trees_up_to(9):
        c, part = colored(t)
        m = maximum_matching(t)
        covered = {x for e in m for x in e}
        for comp in part:
            assert formal_genericity(comp, covered)


def test_shared_green_blocks_can_disconnect():
    ds = Tree(7, ((0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)))
    c, part = colored(ds)
    comp = part.components[0]
    blocks = {a.blocks for a in admissible_sets(comp)}
    assert any(len(b) > 1 for b in blocks)
