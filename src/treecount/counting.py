"""Exact point-count polynomials of the tree varieties.

The production path, :func:`count_polynomial`, counts by size the
independent sets that contain no admissible set of a generic component, in
one bottom-up pass, and weighs each size by a power of (q-1) times a power of
q.  The pass packs each polynomial in the set size into one Python integer,
one fixed-width slot per size (Kronecker substitution), so that a product of
polynomials is a single big-integer product.  Every slot counts independent
sets of the tree, so a slot one bit wider than the total number i(T) of
independent sets needs can never carry into the next; i(T) comes from a
scalar pass first.  The weighing of the size vector into N(q) is packed the
same way: N is evaluated at q = 2**s as one integer, by Horner steps of
shifts and additions, and its signed coefficients are read back from s-bit
slots (:func:`_weigh_by_size`).

The pass takes a children-first vertex order and a parent array, not a
:class:`Tree`, and reads colors only at generic vertices.  A tree hands it
its own rooting at 0 (``t.order``, ``t.parent``); the coincidence census
counts every tree straight off the parent arrays of the free-tree walk,
colors only the unimodal-generic ones, off the same arrays, and buckets
them on their size vector.  For the orange and unimodal-versal classes it
carries the pass's states of closed subtrees from one array to the next.

Also here: closed forms for the linear, D- and E-shaped families (checked
by exact division), the all-versal independent-set formula and the
divisibility/reciprocity report.  The leaf/domino
recursion and the orange/unimodal chain that check :func:`count_polynomial`
live in the test suite's ``tests/oracles.py``.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeAlias

from .coloring import (
    Color,
    Coloring,
    RedGreenPartition,
    _gallai_edmonds,
    canonical_coloring,
    dimension,
    red_green_components,
)
from .matchings import independent_set_size_counts
from .polynomials import Poly, Q
from .trees import Tree, _free_tree_parents, _graph6, _greedy_mates


class PhiKind(enum.Enum):
    GENERIC = "generic"
    VERSAL = "versal"


class PhiError(ValueError):
    """A generic/versal specification that does not fit the tree."""


class PhiAssignment(NamedTuple):
    """One generic/versal choice per red-green component, in partition order."""

    kinds: tuple[PhiKind, ...]


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
        if len(spec.kinds) != len(partition):
            raise PhiError("assignment length does not match the components")
        return spec
    if spec is None:
        if len(partition):
            raise PhiError("tree has red-green components, a phi choice is required")
        return PhiAssignment(())
    if isinstance(spec, (str, PhiKind)):
        kind = _kind(spec)
        return PhiAssignment(tuple(kind for _ in partition))
    if not isinstance(spec, Mapping):
        raise PhiError(f"phi must be a kind or a mapping of kinds, got {spec!r}")
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


class ResolvedPhi(NamedTuple):
    """A choice spec resolved against one tree."""

    coloring: Coloring
    partition: RedGreenPartition
    assignment: PhiAssignment
    kinds: tuple[PhiKind | None, ...]


def resolve_tree_phi(t: Tree, spec: PhiSpec) -> ResolvedPhi:
    """Color ``t``, split it into red-green components and resolve ``spec``
    to one choice per component and per vertex (None on orange)."""
    coloring = canonical_coloring(t)
    partition = red_green_components(t, coloring)
    assignment = resolve_phi(partition, spec)
    kinds: list[PhiKind | None] = [None] * t.n
    for comp, kind in zip(partition, assignment.kinds):
        for v in comp.vertices:
            kinds[v] = kind
    return ResolvedPhi(coloring, partition, assignment, tuple(kinds))


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
    generic, green = PhiKind.GENERIC, Color.GREEN
    # 0: neither, 1: generic red, 2: generic green
    role = [
        0 if k is not generic else 2 if colors[v] is green else 1
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
    counts = _unpack(o0 + o1 + i0, width)
    found = sum(counts)
    if found > total or (found != total and generic not in kinds):
        raise AssertionError(f"{found} sets counted by size, {total} independent sets")
    return counts


def _unpack(packed: int, width: int) -> list[int]:
    """The slots of ``width`` bytes of a packed size-polynomial, lowest first,
    up to its last nonzero one."""
    raw = packed.to_bytes(-(-packed.bit_length() // (8 * width)) * width, "little")
    return [
        int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)
    ]


#: The open vertices of a pre-order parent array read up to some position,
#: deepest first: (inn, out, without, with_, the rest of the chain), None
#: below the root.
_Fold = tuple[int, int, int, int, "_Fold"] | None


def _carried_size_vectors(
    n: int, arrays: Iterable[list[int]]
) -> Iterator[tuple[list[int], list[int]]]:
    """Each pre-order parent array on n vertices with its size vector c, the
    independence polynomial: :func:`_count_sets_by_size` with no generic
    vertex, carried from one array to the next.

    An array is read from left to right keeping a chain of its open
    vertices, those whose subtree has not ended (the path from the root to
    the last position read), deepest first.  Each carries the products over
    its children closed so far of the kernel's packed states, ``inn`` (v in
    S) and ``out`` (v not in S), and of the scalar counts ``without`` and
    ``with_`` that give i(T).  A position at depth l closes every open
    vertex at depth l or more, folding each into the one below it, and
    opens a leaf; the end closes all of them but the root.  A vertex's
    states depend on its subtree alone, so the chain before every position
    is kept, and an array is read only from the first position where it
    differs from the previous one.

    One slot width serves every tree: i(T) is at most 2**(n-1) + 1, the
    star's count (Prodinger and Tichy, Fibonacci Quart. 20 (1982)), so the
    kernel's slot for that bound never carries.  The slot sum is checked
    against the carried i(T).
    """
    bound = (1 << max(n - 1, 0)) + 1
    width = (bound.bit_length() + 8) // 8  # bytes per slot, as in the kernel
    shift = 8 * width
    depth = [0] * n
    # chain_at[k]: the chain before position k of the array read last
    chain_at: list[_Fold] = [None, (1, 1, 1, 1, None), *[None] * n]
    prev: list[int] = []
    for parent in arrays:
        k = 1
        if prev:
            while k < n and parent[k] == prev[k]:
                k += 1
        chain = chain_at[k]
        for v in range(k, n):
            dv = depth[v] = depth[parent[v]] + 1
            chain = _close_deepest(chain, depth[v - 1] - dv + 1, shift)
            chain = chain_at[v + 1] = (1, 1, 1, 1, chain)
        inn, out, without, with_, _ = _close_deepest(chain, depth[n - 1], shift)
        counts = _unpack(out + (inn << shift), width)
        found, total = sum(counts), without + with_
        if found != total:
            raise AssertionError(f"{found} sets counted by size, {total} independent sets")
        yield parent, counts
        prev = parent


def _close_deepest(chain: _Fold, count: int, shift: int) -> _Fold:
    """Close the ``count`` deepest open vertices of a chain, folding each
    into the one below it, its parent, as :func:`_count_sets_by_size` folds
    a child with no generic vertex."""
    for _ in range(count):
        inn, out, wo, wi, (pinn, pout, pwo, pwi, below) = chain
        chain = (pinn * out, pout * (out + (inn << shift)), pwo * (wo + wi), pwi * wo, below)
    return chain


def _weigh_by_size(counts: Sequence[int], exponent: int) -> Poly:
    """sum_k counts[k] * (q-1)**(exponent - 2k) * q**k, by Horner in (q-1)**2.

    The leading term is counts[0] * q**exponent, so the result is monic of
    degree ``exponent`` (n + vr for a count) exactly when the empty set is
    counted once.

    The polynomial is evaluated at q = X = 2**s as one integer, as the
    kernel packs its size-polynomials: a Horner step acc * (X-1)**2 +
    c_k X**k is two shifts and three additions, and the trailing factor
    (q-1)**(exponent - 2*top) one shift and a subtraction per power.  The
    coefficients a_j are signed, and |a_j| is at most the coefficient sum
    sum_k c_k 2**(exponent-2k) of sum_k c_k q**k (q+1)**(exponent-2k), which
    bounds every coefficient of (q-1)**m by that of (q+1)**m.  So s is the
    bound's bit length plus a sign bit, rounded up to whole bytes, and every
    a_j + 2**(s-1) lies in [0, 2**s).  Adding 2**(s-1) to every slot before
    unpacking the bytes and subtracting it after therefore reads each a_j
    off its own slot, with no carry between slots.  The result is checked
    as the kernel checks its slot sums: monic of degree ``exponent``, with
    N(1) = counts[top] when exponent = 2*top and 0 otherwise, every
    other term keeping a factor q-1.
    """
    if counts[0] != 1:
        raise AssertionError(f"the empty set must count once, not {counts[0]} times")
    top = len(counts) - 1
    if exponent < 2 * top:
        raise AssertionError(
            f"{counts[top]} sets of size {top} would need (q-1)^{exponent - 2 * top}"
        )
    bound = sum(c << (exponent - 2 * k) for k, c in enumerate(counts))
    width = (bound.bit_length() + 8) // 8  # bytes per slot
    shift = 8 * width
    acc = 0
    for k, c in enumerate(counts):
        # acc <- acc * (X-1)**2 + c X**k
        acc = (acc << 2 * shift) - (acc << (shift + 1)) + acc + (c << k * shift)
    for _ in range(exponent - 2 * top):
        acc = (acc << shift) - acc
    half = 1 << (shift - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * (exponent + 1), "little")
    # the top slot holds half + 1, so _unpack reads all exponent + 1 slots
    coeffs = [c - half for c in _unpack(acc + bias, width)]
    at_one = counts[top] if exponent == 2 * top else 0
    if coeffs[-1] != 1 or sum(coeffs) != at_one:
        raise AssertionError(
            f"weighed polynomial has leading coefficient {coeffs[-1]} and "
            f"N(1) = {sum(coeffs)}, not 1 and {at_one}"
        )
    return Poly(tuple(coeffs))


def count_polynomial(t: Tree, phi: PhiSpec = None) -> Poly:
    """Exact number of points N of a tree's variety as a polynomial in the
    field size.

    ``phi`` picks generic or versal per red-green component (uniform string,
    mapping keyed by smallest component vertex, or a resolved assignment).
    Orange trees need no choice.

    N = sum_S (q-1)**(n + vr - 2|S|) * q**|S| over the independent sets S that
    contain no admissible set of a generic component, vr being the summed
    dimension of the versal components.  The sets are counted by size in one
    bottom-up pass; the engines of ``tests/oracles.py``, the closed
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
    colors = resolved.coloring.colors
    counts = _count_sets_by_size(t.order, t.parent, colors, resolved.kinds)
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


def closed_form_a(n: int, mode: Mode) -> Poly:
    """Counts for the linear tree on n vertices."""
    if n < 1:
        raise ValueError("n >= 1")
    if n % 2 == 0:
        if mode is not Mode.ORANGE:
            raise InconsistentModeError("even linear trees are orange")
        return (Poly.q_power(n + 2) - 1).divexact(Q * Q - 1)
    if mode is Mode.VERSAL:
        return (Poly.q_power(n + 2) + 1).divexact(Q + 1)
    if mode is Mode.GENERIC:
        num = (Poly.q_power((n + 1) // 2) - 1) * (Poly.q_power((n + 3) // 2) - 1)
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
            num = (
                Poly.q_power(n + 3) - Poly.q_power(n + 2) + Poly.q_power(n)
                + Poly.q_power(3) - Q + 1
            )
            return num.divexact(Q + 1)
        return (Poly.q_power(n // 2) - 1) ** 2
    if mode is Mode.VERSAL:
        num = (
            Poly.q_power(n + 3) - Poly.q_power(n + 2) + Poly.q_power(n)
            - Poly.q_power(3) + Q - 1
        )
        return num.divexact(Q * Q - 1)
    return Poly.q_power(n) - 1


def closed_form_e(n: int, mode: Mode) -> Poly:
    """Counts for the E-shaped tree on n vertices (n >= 5)."""
    if n < 5:
        raise ValueError("E-family needs n >= 5")
    if n % 2 == 0:
        if mode is not Mode.ORANGE:
            raise InconsistentModeError("even E-shaped trees are orange")
        return ((Q * Q - Q + 1) * (Poly.q_power(n - 1) - 1)).divexact(Q - 1)
    if mode is Mode.VERSAL:
        return (Q * Q - Q + 1) * (Poly.q_power(n - 1) + 1)
    if mode is Mode.GENERIC:
        num = (
            Poly.q_power(n + 1)
            - Poly.q_power(n)
            + Poly.q_power(n - 1)
            - Poly.q_power((n + 3) // 2)
            - Poly.q_power((n - 1) // 2)
            + Q * Q
            - Q
            + 1
        )
        return num.divexact(Q - 1)
    raise InconsistentModeError("odd E-shaped trees are unimodal, not orange")


# ---------------------------------------------------------------------------
# Independent-set formula, reciprocity
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


class ReciprocityReport(NamedTuple):
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


class CensusReport(NamedTuple):
    n: int
    census_class: CensusClass
    tree_count: int
    distinct_polynomial_count: int
    collisions: tuple[tuple[str, ...], ...]
    polynomials: tuple[Poly, ...]


def _generic_size_vector(parent: list[int]) -> list[int]:
    """c of a unimodal-generic pre-order parent array: colored off its greedy
    matching and adjacency lists (:func:`_gallai_edmonds`), every red or
    green vertex generic, counted by :func:`_count_sets_by_size`."""
    n = len(parent)
    order = range(n - 1, -1, -1)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        p = parent[v]
        nbrs[p].append(v)
        nbrs[v].append(p)
    colors = _gallai_edmonds(nbrs, _greedy_mates(order, parent))
    orange, generic = Color.ORANGE, PhiKind.GENERIC
    kinds = [None if col is orange else generic for col in colors]
    return _count_sets_by_size(order, parent, colors, kinds)


def census(n: int, census_class: CensusClass) -> CensusReport:
    """Bucket the n-vertex trees of a class by their polynomial.

    Orange means dimension 0 (the polynomial needs no choice); unimodal
    means dimension 1 with the stated uniform choice on the single
    component.  Collisions list the graph6 strings of trees sharing one
    polynomial.

    The dimension of a tree is the number of vertices its greedy leaf-up
    matching (:func:`_greedy_mates`) leaves unmatched, so the free-tree walk
    is asked for the class's deficiency, 0 or 1, and hands out only those
    parent arrays.  It carries the matching of the subtrees already closed
    from one level sequence to the next and skips whole runs of sequences:
    an unmatched vertex depends only on its parent's subtree, and that
    subtree is closed at a fixed position of the sequence, so once too many
    unmatched vertices are closed no later sequence with the same prefix
    can reach the class (:func:`_free_tree_parents`).  The arrays are
    numbered in pre-order, so vertices n-1 down to 0 put children first,
    and trees are counted straight off them.  An orange or all-versal tree
    excludes no independent set, so it is counted with no coloring, and its
    kernel states, which depend on each subtree alone, are carried from one
    kept array to the next: only the positions after the prefix it shares
    with the previous array are folded again (:func:`_carried_size_vectors`).
    A unimodal-generic tree is colored off its greedy matching and the
    adjacency lists of its parent array (:func:`_gallai_edmonds`) and
    counted afresh (:func:`_generic_size_vector`); with dimension 1 it has
    one red-green component, so every red or green vertex is generic.

    Trees are bucketed on their size vector c (:func:`_count_sets_by_size`),
    which is the same as bucketing on N: within a class n and the versal
    rank vr (1 for unimodal-versal, 0 otherwise) are fixed, and
    c -> N = sum_k c_k (q-1)**(n+vr-2k) q**k is injective: the k-th term has
    lowest power q**k, so N determines c_0, c_1, ... in turn.  Each bucket
    is weighed into N once.  A bucket holds each tree's parent array as
    bytes, the root's left out, and the trees of buckets holding more than
    one are written as graph6 straight from those (:func:`_graph6`): the
    same representatives, in the same order, as
    :func:`enumerate_free_trees`.  No :class:`Tree` is built.
    """
    target = 0 if census_class is CensusClass.ORANGE else 1
    versal_rank = 1 if census_class is CensusClass.UNIMODAL_VERSAL else 0
    walk = _free_tree_parents(n, target)
    if census_class is CensusClass.UNIMODAL_GENERIC:
        counted: Iterable[tuple[list[int], list[int]]] = (
            (parent, _generic_size_vector(parent)) for parent in walk
        )
    else:
        counted = _carried_size_vectors(n, walk)
    tree_count = 0
    buckets: dict[tuple[int, ...], list[bytes]] = {}
    for parent, c in counted:
        tree_count += 1
        # every parent is below n <= 20, so one byte each; the root's is implied
        buckets.setdefault(tuple(c), []).append(bytes(parent[1:]))
    ordered = sorted(
        ((_weigh_by_size(c, n + versal_rank), arrays) for c, arrays in buckets.items()),
        key=lambda kv: kv[0].coeffs,
    )
    collisions = tuple(
        tuple(_graph6(n, zip(a, range(1, n))) for a in arrays)
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
