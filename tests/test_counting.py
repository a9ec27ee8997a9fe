"""The independent-set count against the recursion, closed forms and formulas."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treecount.counting
import treecount.polynomials
from treecount.coloring import Color, _parent_roles, canonical_coloring, dimension
from treecount.counting import (
    CensusClass,
    CensusReport,
    InconsistentModeError,
    Mode,
    PhiAssignment,
    PhiError,
    PhiKind,
    _carried_size_vectors,
    _carried_width,
    _count_sets_by_size,
    _pack,
    _slot_width,
    _unpack,
    _weigh_by_size,
    all_phi_assignments,
    census,
    closed_form_a,
    closed_form_d,
    closed_form_e,
    count_polynomial,
    reciprocity_report,
    resolve_tree_phi,
    versal_by_independent_sets,
)
from treecount.families import d_tree, e_tree, linear_tree, star_tree
from treecount.groupoid import rank_profile
from treecount.matchings import count_maximum_independent_sets, independent_set_size_counts
from treecount.polynomials import Poly, Q
from treecount.trees import (
    Tree,
    _free_tree_parents,
    _greedy_mates,
    emit_graph6,
    enumerate_free_trees,
    parse_graph6,
)
from conftest import colored, prufer_decode, trees_up_to
from oracles import CountEngine, orange_unimodal_chain
from test_trees import relabel, seeded_prufer_tree


def test_base_cases():
    assert count_polynomial(linear_tree(2)) == Q**2 + 1
    assert count_polynomial(Tree(1, ()), "versal") == Q**2 - Q + 1
    assert count_polynomial(Tree(1, ()), "generic") == Q - 1
    assert count_polynomial(linear_tree(3), "generic") == Q**3 - 1


def test_phi_resolution():
    p3 = linear_tree(3)
    assert resolve_tree_phi(p3, "versal").kinds == (PhiKind.VERSAL,)
    assert resolve_tree_phi(linear_tree(4), "generic").kinds == ()
    for spec, message in (
        (None, "a phi choice is required"),
        (PhiAssignment(()), "assignment length"),
        ({5: "generic"}, "indexed by vertex 5"),
        ({}, r"missing for components indexed by \[0\]"),
        ("bogus", "generic or versal, got 'bogus'"),
        ({0: "bogus"}, "generic or versal, got 'bogus'"),
        ({0: ["generic"]}, "generic or versal, got \\['generic'\\]"),
        (("generic",), "a kind or a mapping of kinds"),
        (["versal"], "a kind or a mapping of kinds"),
    ):
        with pytest.raises(PhiError, match=message):
            resolve_tree_phi(p3, spec)
    with pytest.raises(PhiError):
        count_polynomial(linear_tree(4), "bogus")
    twostars = Tree(8, ((0, 3), (1, 3), (2, 3), (3, 7), (4, 7), (5, 7), (6, 7)))
    resolved = resolve_tree_phi(twostars, {0: "generic", 4: "versal"})
    assert resolved.kinds == (PhiKind.GENERIC, PhiKind.VERSAL)
    assert resolved.label == [0, 0, 0, 0, 1, 1, 1, 1]
    # the versal star's roles are masked, and its dimension 2 is the versal rank
    assert resolved.role == [1, 1, 1, 2, 0, 0, 0, 0]
    assert (resolved.versal_rank, resolved.total) == (2, 2**6 + 2 * 2**3)
    # numbered from 1, a mapping names the components 1 and 5, and so do its errors
    assert resolve_tree_phi(twostars, {1: "generic", 5: "versal"}, 1) == resolved
    with pytest.raises(PhiError, match=r"indexed by \[5\]"):
        resolve_tree_phi(twostars, {1: "generic"}, 1)


def test_resolution_matches_the_partition():
    """Resolved against the components as the label pass numbers them, an
    assignment (in order of the smallest vertex) and the equivalent mapping
    give every vertex the kind of its component in
    :func:`red_green_components`, the roles of the coloring at generic
    vertices and 0 elsewhere, the partition's versal rank and i(T): for
    every (tree, phi) with n <= 9, each tree also relabelled, and for four
    random phi on each of 40 relabelled Prüfer trees with n <= 60, which
    the pass mostly reaches out of the order of their smallest vertex."""
    role_of = {Color.ORANGE: 0, Color.RED: 1, Color.GREEN: 2}
    trees = list(trees_up_to(9))
    rng = random.Random(9)
    for t in trees + [seeded_prufer_tree(n, n) for n in range(21, 61)]:
        perm = list(range(t.n))
        rng.shuffle(perm)
        trees.append(relabel(t, perm))
    pairs = unsorted = 0
    for t in trees:
        coloring, partition = colored(t)
        total = sum(independent_set_size_counts(t))
        choices = all_phi_assignments(partition)
        for assignment in choices if t.n <= 9 else rng.sample(choices, min(4, len(choices))):
            want = [None] * t.n
            for comp, kind in zip(partition, assignment.kinds):
                for v in comp.vertices:
                    want[v] = kind
            mapping = {comp.min_vertex: k.value for comp, k in zip(partition, assignment.kinds)}
            for spec in (assignment, mapping):
                r = resolve_tree_phi(t, spec)
                assert [r.kinds[c] if c >= 0 else None for c in r.label] == want, t.edges
                assert r.role == [
                    role_of[c] if k is PhiKind.GENERIC else 0
                    for c, k in zip(coloring.colors, want)
                ]
                versal = sum(
                    comp.dimension
                    for comp, k in zip(partition, assignment.kinds)
                    if k is PhiKind.VERSAL
                )
                assert (r.versal_rank, r.total) == (versal, total)
            pairs += 1
        # the labels in order of their smallest vertex
        by_low = list(dict.fromkeys(c for c in r.label if c >= 0))
        unsorted += by_low != sorted(by_low)
    assert (pairs, unsorted) == (2 * 221 + 149, 33), (pairs, unsorted)


def test_count_builds_no_coloring(monkeypatch):
    """The count reads roles, labels and i(T) straight off the tree's
    rooting: with :func:`canonical_coloring` and
    :func:`red_green_components` made to raise in every treecount module,
    it still counts, by a uniform kind, a mapping and an assignment."""
    twostars = Tree(8, ((0, 3), (1, 3), (2, 3), (3, 7), (4, 7), (5, 7), (6, 7)))
    cases = [
        (twostars, {0: "generic", 4: "versal"}),
        (twostars, PhiAssignment((PhiKind.VERSAL, PhiKind.GENERIC))),
        (d_tree(7), "generic"),
        (linear_tree(6), None),
    ]
    want = [count_polynomial(t, phi) for t, phi in cases]

    def refuse(*args):
        raise AssertionError("the count built a coloring")

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("treecount"):
            for name in ("canonical_coloring", "red_green_components"):
                if name in vars(mod):
                    monkeypatch.setattr(mod, name, refuse)
    with pytest.raises(AssertionError, match="built a coloring"):
        treecount.coloring.canonical_coloring(twostars)
    assert [count_polynomial(t, phi) for t, phi in cases] == want


def test_closed_form_a_examples():
    assert closed_form_a(1, Mode.VERSAL) == Q**2 - Q + 1
    assert closed_form_a(2, Mode.ORANGE) == Q**2 + 1
    assert closed_form_a(7, Mode.GENERIC) == (Q**2 + 1) * (Q**5 - 1)
    with pytest.raises(InconsistentModeError):
        closed_form_a(2, Mode.GENERIC)
    with pytest.raises(InconsistentModeError):
        closed_form_a(3, Mode.ORANGE)
    with pytest.raises(ValueError, match="n >= 1"):
        closed_form_a(0, Mode.ORANGE)


def test_closed_form_d_examples():
    assert closed_form_d(4, Mode.GENERIC) == (Q**2 - 1) ** 2
    assert closed_form_d(5, Mode.GENERIC) == Q**5 - 1
    with pytest.raises(InconsistentModeError):
        closed_form_d(4, Mode.ORANGE)
    with pytest.raises(ValueError):
        closed_form_d(3, Mode.GENERIC)


def test_closed_form_e_examples():
    assert closed_form_e(6, Mode.ORANGE) == (Q**2 - Q + 1) * (
        Q**4 + Q**3 + Q**2 + Q + 1
    )
    assert closed_form_e(7, Mode.VERSAL) == (Q**2 - Q + 1) * (Q**6 + 1)
    with pytest.raises(InconsistentModeError):
        closed_form_e(6, Mode.VERSAL)
    with pytest.raises(InconsistentModeError):
        closed_form_e(7, Mode.ORANGE)
    with pytest.raises(ValueError, match="n >= 5"):
        closed_form_e(4, Mode.ORANGE)


def test_a7_e7_coincidence():
    expected = (Q**2 + 1) * (Q**5 - 1)
    assert closed_form_a(7, Mode.GENERIC) == expected
    assert closed_form_e(7, Mode.GENERIC) == expected
    assert count_polynomial(linear_tree(7), "generic") == expected
    assert count_polynomial(e_tree(7), "generic") == expected


# Names that only the oracles or the tests call; they live in
# tests/oracles.py or next to the tests that use them.
TEST_ONLY_NAMES = (
    "coloring_by_fixpoint",
    "Forest",
    "remove_vertices",
    "maximum_matching_avoiding",
    "maximum_matching_containing",
    "CountEngine",
    "ChainEngine",
    "branch_length",
    "orange_unimodal_chain",
    "relabel",
    "seeded_prufer_tree",
    "automorphism_count",
    "_rooted_aut",
    "_factorial",
    "check_local_description",
    "formal_genericity",
    "grow_admissible",
    "is_admissible",
    "_next_rooted",
    "_second_child",
    "prufer_decode",
    "euler_characteristic",
)


def test_counting_holds_only_the_production_path():
    """The recursion and chain oracles live in tests/oracles.py, apart from
    the count they check and outside the installed package, and no
    production module or the package defines a test-only name."""
    assert importlib.util.find_spec("treecount.oracles") is None
    table = {
        treecount.counting: ("canonical_key",),
        treecount.trees: (),
        treecount.coloring: (),
        treecount.matchings: (),
        treecount.groupoid: (),
        treecount.polynomials: ("ONE",),
        treecount: (),
    }
    for module, names in table.items():
        defined = vars(module)
        for name in (*names, *TEST_ONLY_NAMES):
            assert name not in defined, (module.__name__, name)


def test_cli_import_loads_no_test_only_code():
    """A fresh ``import treecount.cli``, with the tests importable as well,
    loads neither the oracles nor a test module, and none of the modules it
    loads defines a test-only name.  The test-side modules (``oracles``,
    ``conftest``, ``test_*``) are listed like the package's, so loading any
    of them fails the check."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(
        filter(None, [str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH")])
    )
    code = (
        "import sys, treecount.cli\n"
        "for name, mod in sorted(sys.modules.items()):\n"
        "    if name.split('.')[0] == 'treecount' or name.startswith('test_')"
        " or name in ('conftest', 'oracles'):\n"
        "        print(name, *sorted(set(vars(mod)) & set(sys.argv[1:])))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *TEST_ONLY_NAMES],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = out.stdout.splitlines()
    assert "treecount.cli" in loaded
    for line in loaded:
        assert line.startswith("treecount") and " " not in line, line


def test_recursion_matches_closed_forms():
    """The leaf/domino recursion; criterion 1 checks count_polynomial."""
    count = CountEngine().count
    for n in range(1, 13):
        t = linear_tree(n)
        if n % 2 == 0:
            assert count(t, None) == closed_form_a(n, Mode.ORANGE)
        else:
            assert count(t, "generic") == closed_form_a(n, Mode.GENERIC)
            assert count(t, "versal") == closed_form_a(n, Mode.VERSAL)
    for n in range(4, 13):
        assert count(d_tree(n), "generic") == closed_form_d(n, Mode.GENERIC)
        assert count(d_tree(n), "versal") == closed_form_d(n, Mode.VERSAL)
    for n in range(5, 13):
        t = e_tree(n)
        if n % 2 == 0:
            assert count(t, None) == closed_form_e(n, Mode.ORANGE)
        else:
            assert count(t, "generic") == closed_form_e(n, Mode.GENERIC)
            assert count(t, "versal") == closed_form_e(n, Mode.VERSAL)


def test_monic_degree_law():
    for t in trees_up_to(9):
        _, part = colored(t)
        for phi in all_phi_assignments(part):
            p = count_polynomial(t, phi)
            versal_rank = sum(
                comp.dimension
                for comp, k in zip(part, phi.kinds)
                if k is PhiKind.VERSAL
            )
            assert p.is_monic and p.degree == t.n + versal_rank


def test_weigh_by_size_requires_one_empty_set():
    """c_0 sets the leading coefficient, so c_0 != 1 is the only way the
    weighted sum can miss being monic of the given degree."""
    assert _weigh_by_size([(1, 1)], 2) == [(Q - 1) ** 2 + Q]
    with pytest.raises(AssertionError, match="empty set"):
        _weigh_by_size([(2, 1)], 2)
    with pytest.raises(AssertionError):
        _weigh_by_size([(1, 1)], 1)
    # every vector of a batch is checked
    with pytest.raises(AssertionError, match="empty set"):
        _weigh_by_size([(1, 1), (2, 1)], 2)
    with pytest.raises(AssertionError, match="size 2"):
        _weigh_by_size([(1, 1), (1, 2, 1)], 3)


def _weigh_by_poly(counts, exponent):
    """The weighted sum in plain :class:`Poly` arithmetic."""
    out = Poly()
    for k, c in enumerate(counts):
        out = out + c * (Q - 1) ** (exponent - 2 * k) * Q**k
    return out


@st.composite
def counts_and_exponent(draw):
    counts = [1] + draw(st.lists(st.integers(0, 2**300), max_size=40))
    return counts, 2 * (len(counts) - 1) + draw(st.integers(0, 40))


@given(counts_and_exponent())
@settings(max_examples=60, deadline=None)
def test_weigh_by_size_matches_poly_arithmetic(case):
    """The packed Horner pass reads every signed coefficient off its slot."""
    counts, exponent = case
    assert _weigh_by_size([counts], exponent) == [_weigh_by_poly(counts, exponent)]


@st.composite
def batches(draw):
    """Size vectors of mixed lengths and tops with one exponent; the
    counts are mostly small, as in a census, with the odd huge one."""
    big = draw(st.sampled_from([2**8, 2**40, 2**300]))
    vectors = draw(
        st.lists(
            st.lists(st.integers(0, 2**12) | st.integers(0, big), max_size=12).map(
                lambda tail: [1, *tail]
            ),
            max_size=12,
        )
    )
    top = max((len(c) - 1 for c in vectors), default=0)
    return vectors, 2 * top + draw(st.integers(0, 6))


@given(batches())
@settings(max_examples=80, deadline=None)
def test_batched_weighing_matches_poly_arithmetic(case):
    """One pass weighs a batch of vectors of mixed lengths and tops, each as
    plain Poly arithmetic weighs it alone."""
    vectors, exponent = case
    assert _weigh_by_size(vectors, exponent) == [_weigh_by_poly(c, exponent) for c in vectors]


def test_batched_weighing_fixed_cases():
    """Every shape of the half the weighing carries: exponent - 2t =
    2 rho + eps with eps 0 (N a palindrome) or 1 (N (q-1) times one) and
    rho 0 or not (W steps past the last count), for no vector, one (t = 0,
    whose half is one slot at rho = 0, and t >= 1) or several with mixed
    tops, one of them forcing a much wider slot than the rest; each as Poly
    arithmetic weighs it alone."""
    small = [[1], [1, 3], [1, 5, 2], [1, 7, 10, 1]]
    wide = [1, 2**200, 0, 2**64 - 1]
    for vectors in ([], [[1]], [small[-1]], [[1, 0, 0, 2**40]], small, [*small, wide, *small]):
        top = max((len(c) - 1 for c in vectors), default=0)
        for exponent in (2 * top + extra for extra in (0, 1, 2, 3, 5, 6)):
            assert _weigh_by_size(vectors, exponent) == [
                _weigh_by_poly(c, exponent) for c in vectors
            ], (vectors, exponent)


def test_weigh_by_size_fixed_cases():
    """Empty sums, a long trailing (q-1) power, and single large entries.

    c_t = 2**m - 1 with e = 2t < m gives a_t = c_t + (-1)**t * C(2t, t) and
    the width bound c_t + 2**e, which has m + 1 bits.  With m = 8w - 1 and t
    even that is 8w bits and a_t >= 2**(8w - 1), so a slot of 8w bits with
    no spare sign bit overflows.  Slots are rounded up to 1, 2, 4 or 8 bytes
    up to 8, so m = 7, 15, 31 and 63 are the edges there, and m = 6, 14, 30
    and 62 the largest entries that still fit slots of 1, 2, 4 and 8 bytes;
    alone and in one batch.  At e = 2t + 1, N is (q-1) times the N of
    e = 2t and the bound 2 c_t + 2**e doubles: c_t = 2**(m-1) - 1 meets the
    same edges, and 2**m - 1 the edges one bit up; both are weighed there
    too, alone and in one batch.
    """
    assert _weigh_by_size([[1]], 0) == [Poly.const(1)]
    assert _weigh_by_size([[1]], 5) == [(Q - 1) ** 5]
    star = star_tree(1000)
    resolved = resolve_tree_phi(star, "generic")
    counts = _count_sets_by_size(star.order, star.parent, resolved.role, resolved.total)
    assert _weigh_by_size([counts], star.n) == [_weigh_by_poly(counts, star.n)]
    assert [_slot_width(2**b - 1) for b in (7, 8, 15, 16, 31, 32, 63, 64, 71, 72)] == [
        1, 2, 2, 4, 4, 8, 8, 9, 9, 10,
    ]
    cases, odd_cases = [], []
    for m, t in (
        (8, 1), (16, 2), (16, 7), (7, 2), (15, 4), (23, 6), (63, 30),
        (6, 2), (14, 2), (15, 2),
        (30, 2), (31, 2), (31, 14), (62, 30), (62, 2), (63, 2),
    ):
        counts = [1] + [0] * t
        counts[t] = 2**m - 1
        assert _weigh_by_size([counts], 2 * t) == [_weigh_by_poly(counts, 2 * t)], (m, t)
        cases.append(counts)
        for entry in (2**m - 1, 2 ** (m - 1) - 1):
            counts = counts[:t] + [entry]
            weighed = _weigh_by_size([counts], 2 * t + 1)
            assert weighed == [_weigh_by_poly(counts, 2 * t + 1)], (m, t, entry)
            odd_cases.append(counts)
    exponent = 2 * max(len(c) - 1 for c in cases)
    assert _weigh_by_size(cases, exponent) == [_weigh_by_poly(c, exponent) for c in cases]
    assert _weigh_by_size(odd_cases, exponent + 1) == [
        _weigh_by_poly(c, exponent + 1) for c in odd_cases
    ]


def _unpack_by_slices(packed, width):
    """:func:`_unpack` by byte slices alone."""
    raw = packed.to_bytes(-(-packed.bit_length() // (8 * width)) * width, "little")
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


@st.composite
def slots_and_width(draw):
    width = draw(st.integers(1, 9))
    top = 2 ** (8 * width) - 1
    edge = st.sampled_from([0, 1, top, top >> 1, (top >> 1) + 1])
    return draw(st.lists(st.integers(0, top) | edge, max_size=30)), width


@given(slots_and_width())
@settings(max_examples=150, deadline=None)
def test_unpack_and_pack_match_byte_slices(case):
    """_unpack reads what byte slices read, at every width from 1 to 9 (one
    cast at 1, 2, 4 and 8 bytes), and _pack is its inverse."""
    values, width = case
    packed = sum(v << (8 * width * i) for i, v in enumerate(values))
    assert _pack(values, width) == packed
    got = _unpack(packed, width)
    assert got == _unpack_by_slices(packed, width)
    assert all(type(v) is int for v in got)
    while values and not values[-1]:
        values.pop()
    assert got == values


def test_byte_slice_path_decodes_as_the_cast(monkeypatch):
    """With no cast format, as on a big-endian host, _unpack and _pack take
    the byte-slice path and agree with the cast path at widths 1 to 9, and
    _weigh_by_size reads its signed slots by byte slices as the cast path
    reads them, at slot widths 1 to 10 when they are not rounded up."""
    rng = random.Random(29)
    cases = []
    for width in range(1, 10):
        top = 2 ** (8 * width) - 1
        for _ in range(20):
            values = [rng.choice([0, 1, top, top >> 1, rng.randint(0, top)]) for _ in range(17)]
            cases.append((values, width, sum(v << (8 * width * i) for i, v in enumerate(values))))
    cast = [(_unpack(p, w), _pack(v, w)) for v, w, p in cases]
    # c_2 = 2**m - 1 with (q-1)**4 needs m + 1 bits with the sign bit: w
    # bytes at m = 8w - 2, w + 1 at m = 8w - 1
    weighings = [
        ([[1, 0, 2**m - 1], [1, 3], [1, 7, 10]], 4)
        for w in range(1, 10)
        for m in (8 * w - 2, 8 * w - 1)
    ]
    weighed = [_weigh_by_size(v, e) for v, e in weighings]
    formats = treecount.counting._SLOT_FORMATS
    assert any(formats.get(w) for w in (1, 2, 4, 8)) == (sys.byteorder == "little")
    monkeypatch.setattr(treecount.counting, "_SLOT_FORMATS", {})
    assert [(_unpack(p, w), _pack(v, w)) for v, w, p in cases] == cast
    assert all(packed == got for (_, _, packed), (_, got) in zip(cases, cast))
    # the census and the weighing give the same reports on that path, the
    # census carrying 2-byte slots
    assert _carried_width(12) == _carried_width(11) == 2
    assert _report_digest(census(12, CensusClass.ORANGE)) == CENSUS_DIGESTS[
        CensusClass.ORANGE
    ][12]
    assert _report_digest(census(11, CensusClass.UNIMODAL_VERSAL)) == CENSUS_DIGESTS[
        CensusClass.UNIMODAL_VERSAL
    ][11]
    widths = []

    def unrounded(bound):
        widths.append((bound.bit_length() + 8) // 8)
        return widths[-1]

    monkeypatch.setattr(treecount.counting, "_slot_width", unrounded)
    assert [_weigh_by_size(v, e) for v, e in weighings] == weighed
    assert sorted(set(widths)) == list(range(1, 11))


def test_kernel_at_each_cast_edge(monkeypatch):
    """The kernel's slots of the stars on k = 6, 7, 14, 15, 30, 31, 62 and 63
    leaves, i(T) = 2**k + 1, are 1, 2, 2, 4, 4, 8, 8 and 9 bytes wide, the
    edges of the cast widths, and read back the same size vectors there,
    by the cast and, with no cast format as on a big-endian host, by byte
    slices: every set of leaves when versal, and no two leaves together
    when generic, where every pair of leaves is admissible."""
    edges = (6, 7, 14, 15, 30, 31, 62, 63)
    assert [_slot_width(2**k + 1) for k in edges] == [1, 2, 2, 4, 4, 8, 8, 9]
    for formats in (treecount.counting._SLOT_FORMATS, {}):
        monkeypatch.setattr(treecount.counting, "_SLOT_FORMATS", formats)
        for k in edges:
            star = star_tree(k)
            for phi, expected in (
                ("versal", [1, k + 1] + [comb(k, j) for j in range(2, k + 1)]),
                ("generic", [1, k + 1]),
            ):
                resolved = resolve_tree_phi(star, phi)
                assert resolved.total == 2**k + 1
                counts = _count_sets_by_size(
                    star.order, star.parent, resolved.role, resolved.total
                )
                assert counts == expected, (k, phi, formats)


def test_choice_independence():
    """Randomizing the recursion's peeled leaf and split domino never changes
    results."""
    for t in trees_up_to(8):
        _, part = colored(t)
        for phi in all_phi_assignments(part):
            base = CountEngine().count(t, phi)
            for seed in range(5):
                assert CountEngine(random.Random(seed)).count(t, phi) == base


def test_count_matches_recursion_everywhere():
    """The independent-set count equals the leaf/domino recursion on every
    (tree, phi) pair with n <= 10."""
    engine = CountEngine()
    pairs = 0
    for t in trees_up_to(10):
        _, part = colored(t)
        for phi in all_phi_assignments(part):
            assert count_polynomial(t, phi) == engine.count(t, phi)
            pairs += 1
    assert pairs == 504


@st.composite
def tree_with_phi(draw, max_n=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    size = max(n - 2, 0)
    seq = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
    t = prufer_decode(seq, n)
    _, part = colored(t)
    kind = st.sampled_from(["generic", "versal"])
    kinds = draw(st.lists(kind, min_size=len(part), max_size=len(part)))
    return t, {comp.min_vertex: k for comp, k in zip(part, kinds)} or None


@given(tree_with_phi())
@settings(max_examples=100, deadline=None)
def test_count_matches_recursion_random(pair):
    t, phi = pair
    assert count_polynomial(t, phi) == CountEngine().count(t, phi)


def test_count_long_path():
    """Generic, every red folds into a green and every green into a red: both
    parent branches of the kernel, on integers past those of n = 302."""
    assert count_polynomial(linear_tree(1201), "versal") == closed_form_a(1201, Mode.VERSAL)
    assert count_polynomial(linear_tree(1201), "generic") == closed_form_a(1201, Mode.GENERIC)


@pytest.mark.parametrize("n", [301, 302])
def test_count_matches_closed_forms_at_large_n(n):
    """The packed size-polynomials at a few hundred vertices."""
    path_modes = (Mode.ORANGE,) if n % 2 == 0 else (Mode.GENERIC, Mode.VERSAL)
    for family, closed_form, modes in (
        (linear_tree, closed_form_a, path_modes),
        (d_tree, closed_form_d, (Mode.GENERIC, Mode.VERSAL)),
        (e_tree, closed_form_e, path_modes),
    ):
        for mode in modes:
            phi = None if mode is Mode.ORANGE else mode.value
            assert count_polynomial(family(n), phi) == closed_form(n, mode), (family, mode)


def test_reciprocity_large_random_tree():
    t = seeded_prufer_tree(400, 2014)
    _, part = colored(t)
    p = count_polynomial(t, "generic")
    rep = reciprocity_report(p, rank_profile(part, [True] * len(part)).rank)
    assert rep.divisible and rep.reciprocal


def _tree_of(parent):
    n = len(parent)
    return Tree(n, tuple(zip(parent[1:], range(1, n))))


def _census_trees(n, dim):
    for parent, _ in _free_tree_parents(n):
        if _greedy_mates(range(n - 1, -1, -1), parent).count(-1) == dim:
            yield _tree_of(parent)


def test_size_vector_is_the_independence_polynomial():
    """On orange and all-versal trees no independent set is excluded, so the
    size vector c is the independence polynomial; that is why bucketing the
    census on c is bucketing on N."""
    cases = [(t, None) for n in range(1, 15) for t in _census_trees(n, 0)]
    cases += [(t, "versal") for n in range(1, 14) for t in _census_trees(n, 1)]
    assert len(cases) == 253 + 419
    # the widest slots: i(star) = 2**600 + 1
    cases += [(star_tree(600), "versal"), (seeded_prufer_tree(400, 2014), "versal")]
    for t, phi in cases:
        resolved = resolve_tree_phi(t, phi)
        c = _count_sets_by_size(t.order, t.parent, resolved.role, resolved.total)
        assert c == independent_set_size_counts(t), emit_graph6(t)


def test_carried_size_vectors_equal_the_kernel():
    """The census's carried fold gives, for every tree it keeps with n <= 16
    (deficiency 0 or 1), and for every array of the unpruned walk with
    n <= 12, a packed size vector that unpacks to the one
    :func:`_count_sets_by_size` computes afresh on the same array, with
    i(T) its slot sum; and, with every red and green vertex generic, the
    vector of the roles the role pass reads off the array, with i(T) the
    role pass's."""
    arrays = 0
    for n in range(1, 17):
        width = _carried_width(n)
        order = range(n - 1, -1, -1)
        walks = [_free_tree_parents(n, 0), _free_tree_parents(n, 1)]
        if n <= 12:
            walks.append(_free_tree_parents(n))
        for walk in walks:
            walk = list(walk)
            for parent, packed, total in _carried_size_vectors(n, walk):
                c = _unpack(packed, width)
                assert c == _count_sets_by_size(order, parent), parent
                assert sum(c) == total, parent
                arrays += 1
            for parent, packed, total in _carried_size_vectors(n, walk, True):
                role, want = _parent_roles(order, parent)
                assert _unpack(packed, width) == _count_sets_by_size(order, parent, role), parent
                assert total == want, parent
                arrays += 1
    assert arrays == 2 * (2734 + 987)  # kept, then unpruned; both folds


def _with_totals_shifted(monkeypatch, shift):
    """Make the census read i(T) + shift(repeated) for each carried tree,
    repeated telling whether an earlier tree had the same packed vector."""

    def shifted(n, arrays, generic=False):
        seen = set()
        for parent, packed, total in _carried_size_vectors(n, arrays, generic):
            yield parent, packed, total + shift(packed in seen)
            seen.add(packed)

    monkeypatch.setattr(treecount.counting, "_carried_size_vectors", shifted)


def test_census_checks_i_of_t_per_bucket(monkeypatch):
    """A tree whose packed size vector matches an earlier tree's but whose
    i(T) does not, and a bucket whose slot sum is not its i(T), stop the
    census: census(10, orange) has two buckets of two trees."""
    _with_totals_shifted(monkeypatch, lambda repeated: int(repeated))
    with pytest.raises(AssertionError, match="one size vector"):
        census(10, CensusClass.ORANGE)
    _with_totals_shifted(monkeypatch, lambda repeated: 1)
    with pytest.raises(AssertionError, match="sets counted by size"):
        census(10, CensusClass.ORANGE)


def test_census_of_an_empty_class():
    """Classes with no tree go through the weighing with no vector."""
    for n, census_class in (
        (2, CensusClass.UNIMODAL_VERSAL),
        (2, CensusClass.UNIMODAL_GENERIC),
        (3, CensusClass.ORANGE),
    ):
        rep = census(n, census_class)
        assert rep == CensusReport(n, census_class, 0, 0, (), ()), rep


def test_kernel_takes_any_rooting():
    """The size vector of every (tree, phi) pair with n <= 11 is the same
    from the pre-order parent array the census walks, vertices n-1..0, as
    from the tree's own rooting at every root: the tree is relabelled so
    that the root becomes vertex 0, with its roles."""
    pairs = 0
    for n in range(1, 12):
        for parent, _ in _free_tree_parents(n):
            t = _tree_of(parent)
            _, partition = colored(t)
            for phi in all_phi_assignments(partition):
                role = resolve_tree_phi(t, phi).role
                c = _count_sets_by_size(range(n - 1, -1, -1), parent, role)
                for root in range(n):
                    perm = list(range(n))
                    perm[0], perm[root] = root, 0  # an involution
                    rooted = relabel(t, perm)
                    moved = [role[perm[v]] for v in range(n)]
                    got = _count_sets_by_size(rooted.order, rooted.parent, moved)
                    assert got == c, (
                        emit_graph6(t),
                        phi,
                        root,
                    )
                pairs += 1
    assert pairs == 1186


def test_census_colors_through_canonical_coloring_in_no_class(
    coloring_calls, role_passes, monkeypatch
):
    """Every census tree is counted off its parent array, a unimodal-generic
    one with no coloring: no class calls :func:`canonical_coloring` or the
    role pass, and no :class:`Tree` is built, not even for the graph6 of a
    collision bucket."""
    built = []
    init = Tree.__init__

    def counted_init(self, n, edges):
        built.append(n)
        init(self, n, edges)

    monkeypatch.setattr(Tree, "__init__", counted_init)
    reports = [
        census(12, CensusClass.ORANGE),
        census(11, CensusClass.UNIMODAL_VERSAL),
        census(11, CensusClass.UNIMODAL_GENERIC),
    ]
    assert reports[2].tree_count == 76
    assert coloring_calls == role_passes == []
    assert sum(len(b) for rep in reports for b in rep.collisions) > 0
    assert built == []


def test_census_colors_equal_canonical_coloring():
    """The roles the role pass reads off a parent array in pre-order
    (:func:`_parent_roles` on vertices n-1 down to 0), against which the
    census's carried unimodal-generic fold is checked, are the colors :func:`canonical_coloring` reads off the tree's own rooting, and
    its i(T) the number of independent sets, for every array of the
    unpruned walk with n <= 14, every deficiency, and every array the
    unimodal census keeps with n <= 15."""
    role_of = {Color.ORANGE: 0, Color.RED: 1, Color.GREEN: 2}
    arrays = [parent for n in range(1, 15) for parent, _ in _free_tree_parents(n)]
    kept = [parent for n in range(1, 16) for parent, _ in _free_tree_parents(n, 1)]
    assert (len(arrays), len(kept)) == (5447, 1 + 1 + 2 + 6 + 20 + 76 + 313 + 1361)
    reordered = 0  # trees whose own rooting is not the pre-order
    for parent in arrays + kept:
        t = _tree_of(parent)
        order = range(len(parent) - 1, -1, -1)
        reordered += t.order != tuple(order)
        role, total = _parent_roles(order, parent)
        assert role == [role_of[c] for c in canonical_coloring(t).colors], parent
        assert total == sum(independent_set_size_counts(t)), parent
    assert reordered == len(arrays) + len(kept) - 3  # all but n = 1 (twice) and 2


def test_census_checks_i_of_t_per_generic_bucket(monkeypatch):
    """A unimodal-generic tree whose i(T) is below the slot sum of its
    bucket stops the census, whether it opens the bucket or joins it: the
    bucket keeps the least i(T) of its trees.  census(9, unimodal-generic)
    has 20 trees in 13 buckets."""
    width = _carried_width(9)

    def lowered(first):
        def sized(n, arrays, generic=False):
            assert generic
            seen = set()
            for parent, packed, total in _carried_size_vectors(n, arrays, generic):
                if (packed in seen) != first:
                    total = sum(_unpack(packed, width)) - 1
                seen.add(packed)
                yield parent, packed, total

        return sized

    for first in (True, False):
        monkeypatch.setattr(treecount.counting, "_carried_size_vectors", lowered(first))
        with pytest.raises(AssertionError, match="sets counted by size"):
            census(9, CensusClass.UNIMODAL_GENERIC)


def test_versal_by_independent_sets_examples(figure_tree):
    assert versal_by_independent_sets(Tree(1, ())) == Q**2 - Q + 1
    assert versal_by_independent_sets(linear_tree(2)) == Q**2 + 1
    assert versal_by_independent_sets(linear_tree(3)) == (Q**5 + 1).divexact(Q + 1)
    assert versal_by_independent_sets(figure_tree) == count_polynomial(
        figure_tree, "versal"
    )


def test_versal_by_independent_sets_everywhere():
    for t in trees_up_to(10):
        assert versal_by_independent_sets(t) == count_polynomial(t, "versal")


def test_versal_by_independent_sets_long_path():
    assert versal_by_independent_sets(linear_tree(201)) == closed_form_a(201, Mode.VERSAL)


def euler_characteristic(t: Tree) -> int:
    """Value of the all-versal count at q = 1; checked against vc(T)."""
    value = count_polynomial(t, PhiKind.VERSAL)(1)
    vc = count_maximum_independent_sets(t)
    if value != vc:
        raise AssertionError(
            f"Euler characteristic {value} != maximum-independent-set count {vc}"
        )
    return value


def test_euler_characteristic_examples(figure_tree):
    assert euler_characteristic(linear_tree(3)) == 1
    assert euler_characteristic(Tree(1, ())) == 1
    assert euler_characteristic(figure_tree) == 2


def test_euler_characteristic_everywhere():
    for t in trees_up_to(10):
        assert euler_characteristic(t) == count_maximum_independent_sets(t)


def test_reciprocity_examples():
    rep = reciprocity_report(Q**3 - 1, 1)
    assert rep.divisible and rep.reciprocal and rep.quotient == Q**2 + Q + 1
    rep = reciprocity_report(Q**2 + 1, 0)
    assert rep.divisible and rep.reciprocal
    rep = reciprocity_report((Q**2 - 1) ** 2, 2)
    assert rep.divisible and rep.reciprocal and rep.quotient == (Q + 1) ** 2
    rep = reciprocity_report(Q**2 + 1, 1)
    assert not rep.divisible and not rep.reciprocal


def test_reciprocity_everywhere():
    for t in trees_up_to(9):
        _, part = colored(t)
        for phi in all_phi_assignments(part):
            p = count_polynomial(t, phi)
            rank = rank_profile(
                part, [k is PhiKind.GENERIC for k in phi.kinds]
            ).rank
            rep = reciprocity_report(p, rank)
            assert rep.divisible and rep.reciprocal


def test_chain_examples():
    assert orange_unimodal_chain(linear_tree(4)) == Q**4 + Q**2 + 1
    assert orange_unimodal_chain(linear_tree(3)) == (Q**5 + 1).divexact(Q + 1)
    assert orange_unimodal_chain(e_tree(6)) == closed_form_e(6, Mode.ORANGE)
    assert orange_unimodal_chain(Tree(1, ())) == Q**2 - Q + 1
    with pytest.raises(ValueError):
        orange_unimodal_chain(d_tree(4))  # dimension 2


def test_chain_matches_recursion():
    for t in trees_up_to(11):
        d = dimension(t)
        if d == 0:
            assert orange_unimodal_chain(t) == count_polynomial(t)
        elif d == 1:
            assert orange_unimodal_chain(t) == count_polynomial(t, "versal")


def test_census_spot_checks():
    rep = census(2, CensusClass.ORANGE)
    assert rep.tree_count == 1 and rep.distinct_polynomial_count == 1
    rep = census(10, CensusClass.ORANGE)
    assert rep.tree_count == 15 and rep.distinct_polynomial_count == 13
    assert len(rep.collisions) == 2
    rep = census(9, CensusClass.UNIMODAL_VERSAL)
    assert rep.tree_count == 20 and rep.distinct_polynomial_count == 19
    rep = census(7, CensusClass.UNIMODAL_GENERIC)
    assert rep.tree_count == 6 and rep.distinct_polynomial_count == 5
    # the deficiency n - 2|M| has the parity of n, so the pruned walk must
    # find nothing in these classes
    for rep in (census(12, CensusClass.UNIMODAL_VERSAL), census(13, CensusClass.ORANGE)):
        assert (rep.tree_count, rep.distinct_polynomial_count, rep.collisions) == (0, 0, ())


def test_census_guard():
    from treecount.coloring import SizeGuardError

    with pytest.raises(SizeGuardError):
        census(21, CensusClass.ORANGE)


def reference_census(n, census_class):
    """The census built the slow way: a Tree per free tree, colored to find
    its dimension."""
    target = 0 if census_class is CensusClass.ORANGE else 1
    phi = {
        CensusClass.ORANGE: None,
        CensusClass.UNIMODAL_VERSAL: PhiKind.VERSAL,
        CensusClass.UNIMODAL_GENERIC: PhiKind.GENERIC,
    }[census_class]
    buckets = {}
    for t in enumerate_free_trees(n):
        if dimension(t) == target:
            buckets.setdefault(count_polynomial(t, phi), []).append(emit_graph6(t))
    ordered = sorted(buckets.items(), key=lambda kv: kv[0].coeffs)
    return CensusReport(
        n=n,
        census_class=census_class,
        tree_count=sum(len(g6s) for g6s in buckets.values()),
        distinct_polynomial_count=len(buckets),
        collisions=tuple(tuple(g6s) for _, g6s in ordered if len(g6s) > 1),
        polynomials=tuple(p for p, _ in ordered),
    )


@pytest.mark.parametrize("census_class", list(CensusClass))
def test_census_matches_reference(census_class):
    for n in range(1, 14):
        assert census(n, census_class) == reference_census(n, census_class), n


def test_census_at_the_enumeration_bound():
    orange = census(16, CensusClass.ORANGE)
    assert (orange.tree_count, orange.distinct_polynomial_count) == (701, 472)
    versal = census(15, CensusClass.UNIMODAL_VERSAL)
    assert (versal.tree_count, versal.distinct_polynomial_count) == (1361, 945)


def test_census_past_sixteen():
    """census(18, orange).  These numbers were cross-checked once, outside
    the suite, against building, coloring and counting every one of the
    123,867 trees; this test pins them."""
    orange = census(18, CensusClass.ORANGE)
    assert (orange.tree_count, orange.distinct_polynomial_count) == (2891, 1852)


def test_census_at_the_guard():
    """census(20, orange).  These are the numbers the unpruned walk of all
    823,065 trees gave; this test pins them for the pruned walk."""
    orange = census(20, CensusClass.ORANGE)
    assert (orange.tree_count, orange.distinct_polynomial_count) == (12371, 7530)


def _report_digest(rep: CensusReport) -> str:
    """sha256 of a whole census report: both counts, the coefficients of
    every polynomial and the collision buckets, each in report order."""
    body = repr(
        (
            rep.tree_count,
            rep.distinct_polynomial_count,
            tuple(p.coeffs for p in rep.polynomials),
            rep.collisions,
        )
    )
    return hashlib.sha256(body.encode()).hexdigest()[:16]


# Digests of the reports given by the walk that reads its validity test off
# slices (tests/oracles.py); those of both unimodal classes at n = 15, the
# largest n carried in 2-byte slots, are also those of reference_census.  Sizes with no tree in the class (odd n for
# orange, even n for unimodal) are left out.
CENSUS_DIGESTS = {
    CensusClass.ORANGE: {
        2: "f04795393672e750",
        4: "2d9137efd18d3578",
        6: "faf530a870d95c4c",
        8: "193de703e9bc68a1",
        10: "748e86f95a02608d",
        12: "6d7a1be4ccea2849",
        14: "9992217c1f184e13",
    },
    CensusClass.UNIMODAL_VERSAL: {
        1: "cf3b3e7438ff94b8",
        3: "8a2127277e20a851",
        5: "730e4ba3d7efd5e2",
        7: "0ac48b4e1fafe7b2",
        9: "3e6f48e0e87ef81e",
        11: "371cf5e9764b1cb2",
        13: "634eff9ac982d4ab",
        15: "6e48560a40c4d453",
    },
    CensusClass.UNIMODAL_GENERIC: {
        1: "bad1d6a52ef9cac1",
        3: "dba396841ddabd44",
        5: "51aa33ec6bfdd666",
        7: "0fd3e18e795b8672",
        9: "a0491aef26ff4949",
        11: "416b985c69af129f",
        13: "87f5aed0f708115d",
        15: "1e50bd7a0a8e71f5",
    },
}


def test_census_reports_are_pinned():
    """Whole reports, collision representatives and their order included,
    hash as pinned: census(n, orange) for n <= 14, both unimodal classes for
    n <= 15."""
    for census_class, digests in CENSUS_DIGESTS.items():
        for n, digest in digests.items():
            assert _report_digest(census(n, census_class)) == digest, (census_class, n)


def test_quoted_collision_pairs_have_equal_polynomials():
    a = parse_graph6("IhGGOC@?G")
    b = parse_graph6("IhC_GCA?G")
    assert count_polynomial(a) == count_polynomial(b)
    c = parse_graph6("IhGGOCA?G")
    d = parse_graph6("IhGH?C@?G")
    assert count_polynomial(c) == count_polynomial(d)
    assert count_polynomial(a) != count_polynomial(c)
    e = parse_graph6("HhCGOCA")
    f = parse_graph6("HhGGGG@")
    assert count_polynomial(e, "versal") == count_polynomial(f, "versal")
