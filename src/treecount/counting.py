"""Exact point-count polynomials of the tree varieties.

The production path, :func:`count_polynomial`, counts by size the
independent sets that contain no admissible set of a generic component, in
one bottom-up pass, and weighs each size by a power of (q-1) times a power of
q.  The pass packs each polynomial in the set size into one Python integer,
one fixed-width slot per size (Kronecker substitution), so that a product of
polynomials is a single big-integer product.  Every slot counts independent
sets of the tree, so a slot one bit wider than the total number i(T) of
independent sets needs can never carry into the next; i(T) comes from a
scalar pass first.

The pass takes a children-first vertex order and a parent array, not a
:class:`Tree`, and reads colors only at generic vertices.  So the
coincidence census counts orange and all-versal trees straight off the
parent arrays of the free-tree walk, with no coloring, and buckets them on
their size vector.

Also here: closed forms for the linear, D- and E-shaped families (checked
by exact division), the all-versal independent-set formula, Euler
characteristics and the divisibility/reciprocity report.  The leaf/domino
recursion and the orange/unimodal chain that check :func:`count_polynomial`
live in :mod:`treecount.oracles`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence, TypeAlias

from .coloring import (
    Color,
    Coloring,
    RedGreenPartition,
    canonical_coloring,
    dimension,
    red_green_components,
)
from .matchings import (
    _matching_deficiency,
    _postorder,
    count_maximum_independent_sets,
    independent_set_size_counts,
)
from .polynomials import Poly, Q
from .trees import Tree, _free_tree_parents, _tree_from_parents, emit_graph6


class PhiKind(enum.Enum):
    GENERIC = "generic"
    VERSAL = "versal"


class PhiError(ValueError):
    """A generic/versal specification that does not fit the tree."""


@dataclass(frozen=True)
class PhiAssignment:
    """One generic/versal choice per red-green component, in partition order."""

    kinds: tuple[PhiKind, ...]

    def __len__(self) -> int:
        return len(self.kinds)


# A string, so that no typing cache keeps this module alive after a reload.
PhiSpec: TypeAlias = "str | PhiKind | Mapping[int, str | PhiKind] | PhiAssignment | None"


def _kind(value: str | PhiKind) -> PhiKind:
    if isinstance(value, PhiKind):
        return value
    try:
        return PhiKind(value)
    except ValueError:
        raise PhiError(f"phi must be generic or versal, got {value!r}") from None


def resolve_phi(partition: RedGreenPartition, spec: PhiSpec) -> PhiAssignment:
    """Resolve a user-facing choice spec against the actual components.

    Accepts a uniform kind (string or :class:`PhiKind`), a mapping keyed by
    the smallest vertex of each component, an already-built assignment, or
    ``None`` for trees without components.
    """
    if isinstance(spec, PhiAssignment):
        if len(spec) != len(partition):
            raise PhiError("assignment length does not match the components")
        return spec
    if spec is None:
        if len(partition):
            raise PhiError("tree has red-green components, a phi choice is required")
        return PhiAssignment(())
    if isinstance(spec, (str, PhiKind)):
        kind = _kind(spec)
        return PhiAssignment(tuple(kind for _ in partition))
    by_min = {comp.min_vertex: i for i, comp in enumerate(partition)}
    kinds: list[PhiKind | None] = [None] * len(partition)
    for key, val in spec.items():
        if key not in by_min:
            raise PhiError(f"no red-green component is indexed by vertex {key}")
        kinds[by_min[key]] = _kind(val)
    missing = [comp.min_vertex for comp, k in zip(partition, kinds) if k is None]
    if missing:
        raise PhiError(f"phi missing for components indexed by {missing}")
    return PhiAssignment(tuple(kinds))  # type: ignore[arg-type]


def phi_vertex_kinds(
    coloring: Coloring, partition: RedGreenPartition, phi: PhiAssignment
) -> tuple[PhiKind | None, ...]:
    """Per-vertex view of a component-level assignment (None on orange)."""
    if len(phi) != len(partition):
        raise PhiError("assignment length does not match the components")
    out: list[PhiKind | None] = [None] * len(coloring.colors)
    for comp, kind in zip(partition, phi.kinds):
        for v in comp.vertices:
            out[v] = kind
    return tuple(out)


class ResolvedPhi(NamedTuple):
    """A choice spec resolved against one tree."""

    coloring: Coloring
    partition: RedGreenPartition
    assignment: PhiAssignment
    kinds: tuple[PhiKind | None, ...]


def resolve_tree_phi(t: Tree, spec: PhiSpec) -> ResolvedPhi:
    """Color ``t``, split it into red-green components and resolve ``spec``
    to one choice per component and per vertex."""
    coloring = canonical_coloring(t)
    partition = red_green_components(t, coloring)
    assignment = resolve_phi(partition, spec)
    return ResolvedPhi(
        coloring, partition, assignment, phi_vertex_kinds(coloring, partition, assignment)
    )


def all_phi_assignments(partition: RedGreenPartition) -> list[PhiAssignment]:
    """Every generic/versal choice over the components of a partition."""
    out = [PhiAssignment(())]
    for _ in partition:
        out = [
            PhiAssignment(p.kinds + (k,))
            for p in out
            for k in (PhiKind.GENERIC, PhiKind.VERSAL)
        ]
    return out


# ---------------------------------------------------------------------------
# The independent-set count (the production path)
# ---------------------------------------------------------------------------

def _count_sets_by_size(
    order: Sequence[int],
    parent: Sequence[int],
    colors: Sequence[Color] | None,
    kinds: Sequence[PhiKind | None],
) -> list[int]:
    """``c[k]``: independent sets S with |S| = k that contain no admissible
    set of a generic component.

    The tree is given by ``parent`` (-1 at the root) and ``order``, its
    vertices children first with the root last.  ``colors`` is read only at
    generic vertices, so it may be ``None`` when none is.  One pass folds
    each vertex into its parent.  A vertex's state is four size-polynomials,
    zero where a state cannot occur:

    * ``o0``: v not in S, and for a generic green no child in state ``i1``;
    * ``o1``: a generic green not in S with exactly one child in ``i1``
      (two such children would form an admissible set, so that state is
      dropped);
    * ``i0``: v in S and not in ``i1``;
    * ``i1``: a generic red in S each of whose green children has exactly one
      red child in ``i1``, so that pruning S from below keeps it.

    While its children arrive, v accumulates products over them: ``inn`` of
    o0 + o1 (v in S), ``out`` of o0 + o1 + i0 + i1 (v not in S) and, at a
    generic red, ``down`` of o1.  At a generic green ``out`` and ``down``
    hold o0 and o1 instead.  Once folded into its parent, a vertex's entries
    are set to 0, so the big integers of finished subtrees are freed.

    Reds have only green neighbours, all of their own component, so a red is
    never the top of its component unless it is the root, where ``i1`` is
    dropped: pruning from above cannot remove it either.

    Each size-polynomial is packed into one integer, the count of sets of
    size k in bits [k*B, (k+1)*B) (Kronecker substitution), so a product of
    two polynomials is one integer product, a sum one integer sum and a
    factor x a left shift by B.  Every coefficient of every state, and of
    every product formed on the way, counts distinct independent sets of a
    subforest of T, so it is at most i(T), the number of independent sets
    of T.  A slot of B bits with 2**B > i(T) therefore never carries into
    the next, and ``inn - i1`` never borrows, the sets of ``i1`` being among
    those of ``inn``.  A scalar pass finds i(T) first; B is
    bit_length(i(T)) + 1, a spare bit, rounded up to whole bytes so that the
    root unpacks by byte slices.  The slot sums are checked against i(T):
    equal when no vertex is generic, at most i(T) otherwise.
    """
    n = len(parent)
    # 0: neither, 1: generic red, 2: generic green
    role = [
        0 if k is not PhiKind.GENERIC else 2 if colors[v] is Color.GREEN else 1
        for v, k in enumerate(kinds)
    ]
    # i(T): per vertex, the independent sets below it without / with it
    without, with_ = [1] * n, [1] * n
    for v in order[:-1]:
        p = parent[v]
        without[p] *= without[v] + with_[v]
        with_[p] *= without[v]
    root = order[-1]
    total = without[root] + with_[root]
    width = (total.bit_length() + 8) // 8  # bytes per slot
    shift = 8 * width
    inn, out = [1] * n, [1] * n
    down = [0 if r == 2 else 1 for r in role]
    for v in order:
        i0 = inn[v] << shift
        o0 = out[v]
        r = role[v]
        if r == 2:
            o1, i1 = down[v], 0
        elif r == 1:
            o1, i1 = 0, down[v] << shift
            i0 -= i1
        else:
            o1 = i1 = 0
        p = parent[v]
        if p < 0:
            break
        inn[p] *= o0 + o1
        if role[p] == 2:
            keep = o0 + o1 + i0
            a0 = out[p]
            out[p] = a0 * keep
            down[p] = down[p] * keep + a0 * i1
        else:
            out[p] *= o0 + o1 + i0 + i1
            if role[p]:
                down[p] *= o1
        inn[v] = out[v] = down[v] = 0
    packed = o0 + o1 + i0
    slots = -(-packed.bit_length() // shift)
    raw = packed.to_bytes(slots * width, "little")
    counts = [
        int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)
    ]
    found = sum(counts)
    if found > total or (found != total and PhiKind.GENERIC not in kinds):
        raise AssertionError(f"{found} sets counted by size, {total} independent sets")
    return counts


def _weigh_by_size(counts: Sequence[int], exponent: int) -> Poly:
    """sum_k counts[k] * (q-1)**(exponent - 2k) * q**k, by Horner in (q-1)**2.

    The leading term is counts[0] * q**exponent, so the result is monic of
    degree ``exponent`` (n + vr for a count) exactly when the empty set is
    counted once."""
    if counts[0] != 1:
        raise AssertionError(f"the empty set must count once, not {counts[0]} times")
    top = len(counts) - 1
    if exponent < 2 * top:
        raise AssertionError(
            f"{counts[top]} sets of size {top} would need (q-1)^{exponent - 2 * top}"
        )
    acc: list[int] = []
    for k, c in enumerate(counts):
        # acc <- acc * (q^2 - 2q + 1) + c q^k
        acc = [
            z - 2 * y + x
            for x, y, z in zip(acc + [0, 0], [0] + acc + [0], [0, 0] + acc)
        ]
        acc[k] += c
    for _ in range(exponent - 2 * top):
        acc = [y - x for x, y in zip(acc + [0], [0] + acc)]
    return Poly(tuple(acc))


def count_polynomial(t: Tree, phi: PhiSpec = None) -> Poly:
    """Exact number of points N of a tree's variety as a polynomial in the
    field size.

    ``phi`` picks generic or versal per red-green component (uniform string,
    mapping keyed by smallest component vertex, or a resolved assignment).
    Orange trees need no choice.

    N = sum_S (q-1)**(n + vr - 2|S|) * q**|S| over the independent sets S that
    contain no admissible set of a generic component, vr being the summed
    dimension of the versal components.  The sets are counted by size in one
    bottom-up pass; the engines of :mod:`treecount.oracles`, the closed
    forms, :func:`versal_by_independent_sets` and the F_q oracle check it.
    """
    return _count_resolved(t, resolve_tree_phi(t, phi))


def _count_resolved(t: Tree, resolved: ResolvedPhi) -> Poly:
    """:func:`count_polynomial` for a choice already resolved against ``t``."""
    versal_rank = sum(
        comp.dimension
        for comp, kind in zip(resolved.partition, resolved.assignment.kinds)
        if kind is PhiKind.VERSAL
    )
    order, parent = _postorder(t)
    counts = _count_sets_by_size(order, parent, resolved.coloring.colors, resolved.kinds)
    return _weigh_by_size(counts, t.n + versal_rank)


# ---------------------------------------------------------------------------
# Closed forms, checked by exact division
# ---------------------------------------------------------------------------

class Mode(enum.Enum):
    ORANGE = "orange"
    GENERIC = "generic"
    VERSAL = "versal"


class InconsistentModeError(ValueError):
    """Mode does not exist for that family member (wrong parity)."""


def _qp(k: int) -> Poly:
    return Poly.q_power(k)


def closed_form_a(n: int, mode: Mode) -> Poly:
    """Counts for the linear tree on n vertices."""
    if n < 1:
        raise ValueError("n >= 1")
    if n % 2 == 0:
        if mode is not Mode.ORANGE:
            raise InconsistentModeError("even linear trees are orange")
        return (_qp(n + 2) - 1).divexact(Q * Q - 1)
    if mode is Mode.VERSAL:
        return (_qp(n + 2) + 1).divexact(Q + 1)
    if mode is Mode.GENERIC:
        num = (_qp((n + 1) // 2) - 1) * (_qp((n + 3) // 2) - 1)
        return num.divexact(Q * Q - 1)
    raise InconsistentModeError("odd linear trees are unimodal, not orange")


def closed_form_d(n: int, mode: Mode) -> Poly:
    """Counts for the D-shaped tree on n vertices (n >= 4)."""
    if n < 4:
        raise ValueError("D-family needs n >= 4")
    if mode is Mode.ORANGE:
        raise InconsistentModeError("D-shaped trees are never orange")
    if n % 2 == 0:
        if mode is Mode.VERSAL:
            num = _qp(n + 3) - _qp(n + 2) + _qp(n) + _qp(3) - Q + 1
            return num.divexact(Q + 1)
        return (_qp(n // 2) - 1) ** 2
    if mode is Mode.VERSAL:
        num = _qp(n + 3) - _qp(n + 2) + _qp(n) - _qp(3) + Q - 1
        return num.divexact(Q * Q - 1)
    return _qp(n) - 1


def closed_form_e(n: int, mode: Mode) -> Poly:
    """Counts for the E-shaped tree on n vertices (n >= 5)."""
    if n < 5:
        raise ValueError("E-family needs n >= 5")
    if n % 2 == 0:
        if mode is not Mode.ORANGE:
            raise InconsistentModeError("even E-shaped trees are orange")
        return ((Q * Q - Q + 1) * (_qp(n - 1) - 1)).divexact(Q - 1)
    if mode is Mode.VERSAL:
        return (Q * Q - Q + 1) * (_qp(n - 1) + 1)
    if mode is Mode.GENERIC:
        num = (
            _qp(n + 1)
            - _qp(n)
            + _qp(n - 1)
            - _qp((n + 3) // 2)
            - _qp((n - 1) // 2)
            + Q * Q
            - Q
            + 1
        )
        return num.divexact(Q - 1)
    raise InconsistentModeError("odd E-shaped trees are unimodal, not orange")


# ---------------------------------------------------------------------------
# Independent-set formula, Euler characteristic, reciprocity
# ---------------------------------------------------------------------------

def versal_by_independent_sets(t: Tree) -> Poly:
    """All-versal count as a sum over independent sets S:
    (q-1)**(n + dim - 2|S|) * q**|S|."""
    d = dimension(t)
    out = Poly()
    for size, count in enumerate(independent_set_size_counts(t)):
        if count:
            out = out + count * (Q - 1) ** (t.n + d - 2 * size) * Q**size
    return out


def euler_characteristic(t: Tree) -> int:
    """Value of the all-versal count at q = 1; checked against vc(T)."""
    value = count_polynomial(t, PhiKind.VERSAL)(1)
    vc = count_maximum_independent_sets(t)
    if value != vc:
        raise AssertionError(
            f"Euler characteristic {value} != maximum-independent-set count {vc}"
        )
    return value


@dataclass(frozen=True)
class ReciprocityReport:
    divisible: bool
    reciprocal: bool
    quotient: Poly | None


def reciprocity_report(p: Poly, rank: int) -> ReciprocityReport:
    """Divide out (q-1)**rank exactly and test the quotient for reciprocity."""
    try:
        quotient = p.divexact((Q - 1) ** rank)
    except ArithmeticError:
        return ReciprocityReport(False, False, None)
    return ReciprocityReport(True, quotient.is_reciprocal(), quotient)


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

class CensusClass(enum.Enum):
    ORANGE = "orange"
    UNIMODAL_VERSAL = "unimodal-versal"
    UNIMODAL_GENERIC = "unimodal-generic"


@dataclass(frozen=True)
class CensusReport:
    n: int
    census_class: CensusClass
    tree_count: int
    distinct_polynomial_count: int
    collisions: tuple[tuple[str, ...], ...]
    polynomials: tuple[Poly, ...]


def census(n: int, census_class: CensusClass) -> CensusReport:
    """Bucket the n-vertex trees of a class by their polynomial.

    Orange means dimension 0 (the polynomial needs no choice); unimodal
    means dimension 1 with the stated uniform choice on the single
    component.  Collisions list the graph6 strings of trees sharing one
    polynomial.

    The free-tree walk hands out parent arrays, numbered in pre-order, and
    the dimension of each tree is read off its array in O(n) as the matching
    deficiency n - 2*nu.  Trees of the class are counted straight off the
    array, whose vertices n-1 down to 0 put children first.  An orange or
    all-versal tree excludes no independent set, so it is counted with no
    coloring and no :class:`Tree`; only a unimodal-generic tree is built,
    colored and split into its component to find its generic vertices.

    Trees are bucketed on their size vector c (:func:`_count_sets_by_size`),
    which is the same as bucketing on N: within a class n and the versal
    rank vr (1 for unimodal-versal, 0 otherwise) are fixed, and
    c -> N = sum_k c_k (q-1)**(n+vr-2k) q**k is injective: the k-th term has
    lowest power q**k, so N determines c_0, c_1, ... in turn.  Each bucket
    is weighed into N once, and only the trees of buckets holding more than
    one become a :class:`Tree`, for their graph6 strings: the same
    representatives, in the same order, as :func:`enumerate_free_trees`.
    """
    target = 0 if census_class is CensusClass.ORANGE else 1
    generic = census_class is CensusClass.UNIMODAL_GENERIC
    versal_rank = 1 if census_class is CensusClass.UNIMODAL_VERSAL else 0
    order = range(n - 1, -1, -1)
    no_kinds = (None,) * n
    tree_count = 0
    buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for parent in _free_tree_parents(n):
        if _matching_deficiency(parent) != target:
            continue
        tree_count += 1
        colors, kinds = None, no_kinds
        if generic:
            resolved = resolve_tree_phi(_tree_from_parents(parent), PhiKind.GENERIC)
            colors, kinds = resolved.coloring.colors, resolved.kinds
        c = _count_sets_by_size(order, parent, colors, kinds)
        buckets.setdefault(tuple(c), []).append(tuple(parent))
    ordered = sorted(
        ((_weigh_by_size(c, n + versal_rank), arrays) for c, arrays in buckets.items()),
        key=lambda kv: kv[0].coeffs,
    )
    collisions = tuple(
        tuple(emit_graph6(_tree_from_parents(a)) for a in arrays)
        for _, arrays in ordered
        if len(arrays) > 1
    )
    return CensusReport(
        n=n,
        census_class=census_class,
        tree_count=tree_count,
        distinct_polynomial_count=len(buckets),
        collisions=collisions,
        polynomials=tuple(p for p, _ in ordered),
    )
