"""Exact point-count polynomials of the tree varieties.

The production path, :func:`count_polynomial`, counts by size the
independent sets that contain no admissible set of a generic component, in
one bottom-up pass, and weighs each size by a power of (q-1) times a power of
q.  Before it, φ is resolved off the tree's rooting as plain integers
(:func:`resolve_tree_phi`): the coloring's role pass gives every vertex's
role and the total number i(T) of independent sets, one more pass labels
the red-green components, and the spec picks a kind per component; no
:class:`~treecount.coloring.Coloring` or component record is built.  The
pass packs each polynomial in the set size into one Python integer, one
fixed-width slot per size (Kronecker substitution), so that a product of
polynomials is a single big-integer product.  Every slot counts independent
sets of the tree, so a slot one bit wider than i(T) needs can never carry
into the next.  The weighing of size vectors into N(q) is packed the
same way: N is evaluated at q = 2**s as one integer, by Horner steps of
shifts and additions, and its signed coefficients are read back from s-bit
slots; many vectors with one exponent are weighed in one such pass, side by
side (:func:`_weigh_by_size`).  Slots of 1, 2, 4 or 8 bytes are read in one
memoryview cast (:func:`_unpack`).

The pass, like the role pass, takes a children-first vertex order and a
parent array, not a :class:`Tree`, and reads the roles of the generic
vertices only.  A tree hands both its own rooting at 0 (``t.order``,
``t.parent``); the coincidence census counts every tree straight off the
parent arrays of the free-tree walk and buckets it on its size vector
packed at one slot width, unpacking each bucket once.  It carries the
pass's states of closed subtrees from one array to the next in every
class, with no role pass: a unimodal-generic vertex, whose role depends on
one bit from outside its subtree, keeps what either value of it needs.

Also here: closed forms for the linear, D- and E-shaped families (checked
by exact division), the all-versal independent-set formula and the
divisibility/reciprocity report.  The leaf/domino
recursion and the orange/unimodal chain that check :func:`count_polynomial`
live in the test suite's ``tests/oracles.py``.
"""

from __future__ import annotations

import enum
import struct
import sys
from itertools import islice, product, zip_longest
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Sized, TypeAlias

from .coloring import _label_components, _parent_roles, dimension
from .matchings import independent_set_size_counts
from .polynomials import Poly, Q
from .trees import Tree, _free_tree_parents, _graph6


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


#: Each kind under its value and under itself: a dict lookup, where calling
#: the enum would run the Python code of its constructor.
_KINDS = {**{k.value: k for k in PhiKind}, **{k: k for k in PhiKind}}


def _kind(value: str | PhiKind) -> PhiKind:
    try:
        return _KINDS[value]
    except (KeyError, TypeError):  # TypeError: unhashable
        raise PhiError(f"phi must be generic or versal, got {value!r}") from None


class ResolvedPhi(NamedTuple):
    """A choice spec resolved against one tree, its red-green components
    numbered as :func:`_label_components` reaches them."""

    role: list[int]  # 1 at generic reds, 2 at generic greens, 0 elsewhere
    total: int  # i(T), the number of independent sets
    versal_rank: int  # summed dimension of the versal components
    kinds: tuple[PhiKind, ...]  # one per component
    label: list[int]  # each vertex's component, -1 on orange


def resolve_tree_phi(t: Tree, spec: PhiSpec, offset: int = 0) -> ResolvedPhi:
    """Color ``t`` off its rooting, label its red-green components and
    resolve ``spec`` to one choice per component.

    Accepts a uniform kind (string or :class:`PhiKind`), a mapping keyed by
    the smallest vertex of each component, an assignment listing the kinds
    in order of the components' smallest vertices, or ``None`` for trees
    without components.  A mapping's keys are the smallest vertices plus
    ``offset``, as an input numbered from ``offset`` names them, and so are
    the vertices its errors name.  The roles of the versal components are
    masked to 0, so the count reads the generic vertices off ``role`` alone.
    The spec is resolved by :func:`_resolve_spec`, which
    :func:`_resolve_every_phi` runs on one pair of passes for every choice.
    """
    role, total = _parent_roles(t.order, t.parent)
    label, low, dims = _label_components(t.order, t.parent, role)
    return _resolve_spec(role, total, label, low, dims, spec, offset)


def _resolve_every_phi(t: Tree) -> Iterator[tuple[PhiAssignment, ResolvedPhi]]:
    """Each choice of :func:`all_phi_assignments` over the red-green
    components of ``t`` with its resolution, the role and label passes run
    once for all of them."""
    role, total = _parent_roles(t.order, t.parent)
    label, low, dims = _label_components(t.order, t.parent, role)
    for phi in all_phi_assignments(low):
        yield phi, _resolve_spec(role, total, label, low, dims, phi, 0)


def _resolve_spec(
    role: list[int], total: int, label: list[int], low: list[int], dims: list[int],
    spec: PhiSpec, offset: int,
) -> ResolvedPhi:
    """:func:`resolve_tree_phi` on the results of its two passes, which it
    leaves as they are."""
    if offset:
        low = [m + offset for m in low]
    if isinstance(spec, (str, PhiKind)):
        kinds = (_kind(spec),) * len(low)
    elif isinstance(spec, (dict, Mapping)):  # a dict skips the ABC's check
        by_min = dict(zip(low, range(len(low))))
        found: list[PhiKind | None] = [None] * len(low)
        for key, val in spec.items():
            if key not in by_min:
                raise PhiError(f"no red-green component is indexed by vertex {key}")
            found[by_min[key]] = _kind(val)
        if None in found:
            missing = sorted(m for m, k in zip(low, found) if k is None)
            raise PhiError(f"phi missing for components indexed by {missing}")
        kinds = tuple(found)  # type: ignore[arg-type]
    elif isinstance(spec, PhiAssignment):
        if len(spec.kinds) != len(low):
            raise PhiError("assignment length does not match the components")
        found = [None] * len(low)
        for kind, c in zip(spec.kinds, sorted(range(len(low)), key=low.__getitem__)):
            found[c] = kind
        kinds = tuple(found)  # type: ignore[arg-type]
    elif spec is None:
        if low:
            raise PhiError("tree has red-green components, a phi choice is required")
        kinds = ()
    else:
        raise PhiError(f"phi must be a kind or a mapping of kinds, got {spec!r}")
    generic = [k is PhiKind.GENERIC for k in kinds]
    if not all(generic):
        # an orange vertex has role 0 whatever generic[-1] says
        role = [r if generic[c] else 0 for r, c in zip(role, label)]
    versal_rank = sum([d for d, g in zip(dims, generic) if not g])
    return ResolvedPhi(role, total, versal_rank, kinds, label)


def all_phi_assignments(partition: Sized) -> list[PhiAssignment]:
    """Every generic/versal choice over a sized collection of red-green
    components (a :class:`~treecount.coloring.RedGreenPartition`, or any
    other with one entry per component), each listing its kinds in order of
    the components' smallest vertex, as :func:`resolve_tree_phi` reads it."""
    kinds = (PhiKind.GENERIC, PhiKind.VERSAL)
    return [PhiAssignment(k) for k in product(kinds, repeat=len(partition))]


# ---------------------------------------------------------------------------
# The independent-set count (the production path)
# ---------------------------------------------------------------------------

def _count_sets_by_size(
    order: Sequence[int],
    parent: Sequence[int],
    role: Sequence[int] | None = None,
    total: int | None = None,
) -> list[int]:
    """``c[k]``: independent sets S with |S| = k that contain no admissible
    set of a generic component.

    The tree is given by ``parent`` (-1 at the root) and ``order``, its
    vertices children first with the root last.  ``role`` is 1 at generic
    reds, 2 at generic greens and 0 elsewhere (:func:`resolve_tree_phi`),
    ``None`` when no vertex is generic.  ``total`` is the tree's number
    i(T) of independent sets, which the role pass of the coloring finds
    (:func:`_parent_roles`, run here when ``total`` is not given).  It sizes
    the slots of :func:`_fold_sets`: bit_length(i(T)) + 1, a spare bit,
    rounded up to whole bytes so that the root unpacks by whole-byte slots
    (:func:`_unpack`); their sum is checked against i(T)
    (:func:`_unpack_checked`).
    """
    if total is None:
        total = _parent_roles(order, parent)[1]
    if role is None:
        role = [0] * len(parent)
    width = (total.bit_length() + 8) // 8  # bytes per slot
    return _unpack_checked(_fold_sets(order, parent, role, 8 * width), width, total, any(role))


def _fold_sets(order: Sequence[int], parent: Sequence[int], role: Sequence[int], shift: int) -> int:
    """The size-polynomial of :func:`_count_sets_by_size` packed in slots of
    ``shift`` bits, ``role`` 1 at generic reds, 2 at generic greens and 0
    elsewhere.

    One pass folds each vertex into its parent.  A vertex's state is four
    size-polynomials, zero where a state cannot occur:

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

    A size-polynomial is one integer, the count of sets of size k in slot k
    of B = ``shift`` bits (Kronecker substitution): a product of two is one
    integer product and a factor x a shift by B.  Every coefficient of every
    state and product counts distinct independent sets of a subforest of T,
    so it is at most i(T); with 2**B > i(T) no slot carries into the next,
    and ``inn - i1`` never borrows, the sets of ``i1`` being among ``inn``'s.
    """
    n = len(parent)
    inn, out = [1] * n, [1] * n
    down = [0 if r == 2 else 1 for r in role]
    for v in order:
        i0 = inn[v] << shift
        o, r = out[v], role[v]  # o: o0, then o0 + o1, v not in S
        if r == 1:
            o1, i1 = 0, down[v] << shift
            i0 -= i1
        elif r == 2:
            o1, i1 = down[v], 0
            o += o1
        else:
            o1 = i1 = 0
        p = parent[v]
        if p < 0:
            break
        inn[p] *= o
        keep = o + i0
        rp = role[p]
        if rp == 2:
            a0 = out[p]
            out[p] = a0 * keep
            down[p] = down[p] * keep + a0 * i1
        else:
            out[p] *= keep + i1
            if rp:
                down[p] *= o1
        inn[v] = out[v] = down[v] = 0
    return o + i0


#: The memoryview format of each slot width in bytes that one cast reads;
#: a cast reads the host's byte order, so only on little-endian hosts.
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {}


def _unpack(packed: int, width: int) -> list[int]:
    """The slots of ``width`` bytes of a packed size-polynomial, lowest first,
    up to its last nonzero one: one memoryview cast for slots of 1, 2, 4 or
    8 bytes, byte slices otherwise."""
    raw = packed.to_bytes(-(-packed.bit_length() // (8 * width)) * width, "little")
    fmt = _SLOT_FORMATS.get(width)
    if fmt:
        return memoryview(raw).cast(fmt).tolist()
    return [
        int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)
    ]


def _unpack_checked(packed: int, width: int, total: int, generic: bool) -> list[int]:
    """The size vector c packed in slots of ``width`` bytes (:func:`_unpack`),
    its slot sum checked against i(T), ``total``: the sets of c are
    independent sets of the tree, so at most i(T), and all of them when no
    vertex is ``generic``.  A census bucket passes the least i(T) of its
    trees."""
    c = _unpack(packed, width)
    found = sum(c)
    if found > total or (found != total and not generic):
        raise AssertionError(f"{found} sets counted by size, {total} independent sets")
    return c


def _pack(values: Sequence[int], width: int) -> int:
    """The integer with ``values[i]`` in slot i of ``width`` bytes: the
    inverse of :func:`_unpack`, in one call at the widths it casts."""
    fmt = _SLOT_FORMATS.get(width)
    if fmt:
        return int.from_bytes(struct.pack(f"{len(values)}{fmt}", *values), "little")
    return int.from_bytes(b"".join([v.to_bytes(width, "little") for v in values]), "little")


def _slot_width(bound: int) -> int:
    """Whole bytes per slot for values up to ``bound`` with a spare bit,
    rounded up to 4 or 8 when at most 8, which :func:`_unpack` reads by one
    cast; a wider slot never carries either."""
    width = (bound.bit_length() + 8) // 8
    return width if width > 8 else 4 if width <= 4 else 8


#: The open vertices of a pre-order parent array read up to some position,
#: deepest first: each vertex's products (:func:`_step`,
#: :func:`_step_generic`), then the rest of the chain, None at the end.
_Fold = tuple | None


def _carried_width(n: int) -> int:
    """Bytes per slot of the packed size vectors of every tree on n
    vertices: i(T) is at most 2**(n-1) + 1, the star's count (Prodinger and
    Tichy, Fibonacci Quart. 20 (1982)), so a slot for that bound never
    carries."""
    return _slot_width((1 << max(n - 1, 0)) + 1)


def _carried_size_vectors(
    n: int, arrays: Iterable[tuple[list[int], int]], generic: bool = False
) -> Iterator[tuple[list[int], int, int]]:
    """Each pre-order parent array on n vertices with its size vector c
    packed in slots of :func:`_carried_width` bytes, and its number i(T) of
    independent sets: :func:`_fold_sets` carried from one array to the
    next, with no generic vertex, or with every red and green vertex
    generic (a unimodal-generic tree, whose one red-green component holds
    them all).

    An array is read from left to right keeping a chain of its open
    vertices, those whose subtree has not ended (the path from the root to
    the last position read), deepest first.  Each carries products over its
    children closed so far: of the kernel's packed states and of the scalar
    counts ``without`` and ``with_`` that give i(T).  A position at depth l
    closes every open vertex at depth l or more, folding each into the one
    below it, and opens a leaf (:func:`_step` without generic vertices,
    :func:`_step_generic` with them); the end closes all of them but the
    root, and reads c and i(T) off the root's products.  A vertex's
    products depend on its subtree alone, so the chain before every
    position is kept, and each array is read only from the position that
    comes with it, the first where it differs from the previous one
    (:func:`_free_tree_parents`).

    One slot width serves every tree, so two trees share c exactly when
    they share the packed integer; the caller unpacks it and checks its
    slot sum against i(T).
    """
    shift = 8 * _carried_width(n)
    step, read = (_step_generic, _read_generic) if generic else (_step, _read)
    depth = [0] * n
    # chain_at[k]: the chain before position k of the array read last
    chain_at: list[_Fold] = [None, step(None, 0, shift), *[None] * n]
    for parent, low in arrays:
        chain = chain_at[low]
        for v in range(low, n):
            dv = depth[v] = depth[parent[v]] + 1
            chain = chain_at[v + 1] = step(chain, depth[v - 1] - dv + 1, shift)
        packed, total = read(step(chain, depth[n - 1], shift)[-1], shift)
        yield parent, packed, total


def _step(chain: _Fold, count: int, shift: int) -> _Fold:
    """Close the ``count`` deepest open vertices of a chain, folding each
    into the one below it, its parent, as :func:`_fold_sets` folds a child
    with no generic vertex, and open a leaf on the rest.  A vertex keeps
    (``out``, ``without``, ``inn``, ``with_``): ``out`` (v not in S) takes
    each child's o0 + i0, ``inn`` (v in S) its o0."""
    while count:  # no range to build for the many steps that close nothing
        count -= 1
        out, wo, inn, wi, (pout, pwo, pinn, pwi, below) = chain
        chain = (pout * (out + (inn << shift)), pwo * (wo + wi), pinn * out, pwi * wo, below)
    return (1, 1, 1, 1, chain)


def _read(root: tuple, shift: int) -> tuple[int, int]:
    """c and i(T) off the products of a root of :func:`_step`."""
    out, wo, inn, wi, _ = root
    return out + (inn << shift), wo + wi


def _step_generic(chain: _Fold, count: int, shift: int) -> _Fold:
    """:func:`_step` with every red and green vertex generic.

    A vertex's role depends on its subtree and one bit from outside it, e:
    1 when its parent is exposed in T minus v's subtree (the top-down pass
    of :func:`_parent_roles`), which is when the parent's e and its free
    children (those exposed in their own subtree) other than v are all 0.
    With f free children v is red at e = 0 and orange at e = 1 when f = 0,
    orange at e = 0 and green at e = 1 when f = 1, and green when f >= 2.
    Every child of a red is read at e = 1, as is the one free child of an
    orange; every other child at e = 0.

    Only the split of v's sets among the kernel's states depends on e: o
    (v not in S) and o + i0 + i1 are products of the children's, which by
    induction do not.  So v keeps its green products over the children
    closed so far, ``out``, ``inn`` and ``down`` (seeded 0), and the red
    one's ``rdown``, the product of its children's o1 at e = 1 (seeded 1).
    While f = 0 no child is red, so ``down`` is 0 and ``out`` and ``inn``
    are the red and the orange products too; a free child has ``down`` 0,
    so it turns ``rdown`` to 0.  An orange v with f = 1 reads its free
    child at e = 1, i1 sets and all, so its ``out`` is ``out + down``.

    Closed, v offers o = ``out + down`` and o + i0 + i1 = o + ``inn`` x at
    either e, x shifting by one slot; i1 = ``rdown`` x at e = 0, which is 0
    unless v is red there (f = 0); and o1 = ``down`` at e = 1, 0 unless v
    is green there (f >= 1).  That is all its parent reads: a red one reads
    its children at e = 1, none free, so o1 and no i1; a green one reads
    i1 at e = 0 and no o1; an orange one only o and o + i0 + i1.
    """
    while count:
        count -= 1
        out, wo, inn, wi, down, rdown, (pout, pwo, pinn, pwi, pdown, prdown, below) = chain
        o = out + down
        i1 = rdown << shift
        keep = o + (inn << shift) - i1
        chain = (
            pout * keep, pwo * (wo + wi), pinn * o, pwi * wo,
            pdown * keep + pout * i1, prdown * down, below,
        )
    return (1, 1, 1, 1, 0, 1, chain)


def _read_generic(root: tuple, shift: int) -> tuple[int, int]:
    """c and i(T) off the products of a root of :func:`_step_generic`: the
    root is read at e = 0, and a red root's i1 is dropped, as
    :func:`_fold_sets` drops it."""
    out, wo, inn, wi, down, rdown, _ = root
    return out + down + ((inn - rdown) << shift), wo + wi


def _weigh_by_size(vectors: Sequence[Sequence[int]], exponent: int) -> list[Poly]:
    """Each size vector c of ``vectors`` weighed into
    sum_k c[k] * (q-1)**(exponent - 2k) * q**k by Horner in (q-1)**2, all in
    one pass.  A result is monic of degree ``exponent`` (n + vr for a count)
    exactly when c[0] = 1, the empty set counted once.

    The m results N_b are evaluated at q = X = 2**(m*s) as one integer,
    sum_b 2**(s*b) N_b(X): coefficient j of N_b sits in slot j*m + b of s
    bits.  A Horner step acc * (X-1)**2 + C_k X**k is two shifts and three
    additions, C_k holding the k-th count of every vector in its own slot
    (:func:`_pack`; with one vector, the count itself).  A shorter vector
    counts no sets of the missing sizes, so the trailing factor
    (q-1)**(exponent - 2*top) of the longest finishes every N_b.  Each a_j is
    signed, and |a_j| is at most sum_k c_k 2**(exponent-2k), the coefficient
    sum of sum_k c_k q**k (q+1)**(exponent-2k), which bounds every
    coefficient of (q-1)**e by that of (q+1)**e; taken over the largest
    count of each size, the sum bounds every vector's.  So s is its bit
    length plus a sign bit (:func:`_slot_width`), every a_j + 2**(s-1) lies
    in (0, 2**s), and biasing every slot by 2**(s-1) before unpacking reads
    each a_j off its own slot.  Each result is checked as the kernel checks
    its slot sums: monic of degree ``exponent``, and N(1) = c[top] when
    exponent = 2*top, else 0, every other term keeping a factor q-1.
    """
    for counts in vectors:
        if counts[0] != 1:
            raise AssertionError(f"the empty set must count once, not {counts[0]} times")
        top = len(counts) - 1
        if exponent < 2 * top:
            raise AssertionError(
                f"{counts[top]} sets of size {top} would need (q-1)^{exponent - 2 * top}"
            )
    m = len(vectors)
    if m == 1:
        largest = columns = vectors[0]
    else:
        columns = list(zip_longest(*vectors, fillvalue=0))
        largest = [max(col) for col in columns]
    top = len(largest) - 1
    width = _slot_width(sum([c << (exponent - 2 * k) for k, c in enumerate(largest)]))
    if m != 1:
        columns = [_pack(col, width) for col in columns]
    shift = 8 * width * m
    acc = 0
    for k, c in enumerate(columns):
        # acc <- acc * (X-1)**2 + c X**k
        acc = (acc << 2 * shift) - (acc << (shift + 1)) + acc + (c << k * shift)
    for _ in range(exponent - 2 * top):
        acc = (acc << shift) - acc
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * ((exponent + 1) * m), "little")
    # every slot holds a_j + half > 0, so _unpack reads all of them
    coeffs = [a - half for a in _unpack(acc + bias, width)]
    polys = []
    for b, counts in enumerate(vectors):
        mine = coeffs[b::m]
        top = len(counts) - 1
        at_one = counts[top] if exponent == 2 * top else 0
        if mine[-1] != 1 or sum(mine) != at_one:
            raise AssertionError(
                f"weighed polynomial has leading coefficient {mine[-1]} and "
                f"N(1) = {sum(mine)}, not 1 and {at_one}"
            )
        polys.append(Poly(tuple(mine)))
    return polys


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
    counts = _count_sets_by_size(t.order, t.parent, resolved.role, resolved.total)
    return _weigh_by_size([counts], t.n + resolved.versal_rank)[0]


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


#: Buckets unpacked and weighed in one pass of :func:`_weigh_by_size`: all
#: of a class up to n = 14, and at n = 19 and 20 few enough that peak memory
#: stays below that of weighing bucket by bucket.
_WEIGH_BATCH = 1024


class CensusReport(NamedTuple):
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

    The dimension of a tree is the number of vertices its greedy leaf-up
    matching (:func:`_greedy_mates`) leaves unmatched, so the free-tree walk
    is asked for the class's deficiency, 0 or 1, and hands out only those
    parent arrays.  It carries the matching of the subtrees already closed
    from one level sequence to the next and skips whole runs of sequences:
    an unmatched vertex depends only on its parent's subtree, and a vertex
    is certain to be left unmatched as soon as it closes free beside a free
    sibling, so once too many such vertices are counted no later sequence
    with the same prefix can reach the class (:func:`_free_tree_parents`).
    The arrays are numbered in pre-order, so vertices n-1 down to 0 put
    children first, and trees are counted straight off them, with no
    coloring.  The kernel states of each closed subtree are carried from
    one kept array to the next, so only the positions from the lowest one
    the walk rewrote since the previous array are folded again
    (:func:`_carried_size_vectors`).  An orange or all-versal tree excludes
    no independent set, and its states depend on each subtree alone.  A
    unimodal-generic tree has one red-green component, so every red or
    green vertex is generic; a vertex's role depends on its subtree and
    one bit from outside it, and its subtree's states are carried for
    either value of that bit (:func:`_step_generic`).

    Trees are bucketed on their size vector c, which is the same as
    bucketing on N: within a class n and the versal rank vr (1 for
    unimodal-versal, 0 otherwise) are fixed, and
    c -> N = sum_k c_k (q-1)**(n+vr-2k) q**k is injective: the k-th term has
    lowest power q**k, so N determines c_0, c_1, ... in turn.  c is bucketed
    packed, at one slot width for all n-vertex trees, and each bucket is
    unpacked once, its slot sum checked against i(T): equal to the i(T) of
    every tree of an orange or versal bucket, at most the least i(T) of a
    generic bucket's trees, the kernel's check per tree (equal c, equal
    slot sums).  The buckets share the exponent n + vr and are weighed into
    N :data:`_WEIGH_BATCH` at a time, each batch in one pass
    (:func:`_weigh_by_size`).  A bucket holds each tree's parent array as
    bytes, the root's left out, and the trees of buckets holding more than
    one are written as graph6 straight from those (:func:`_graph6`): the
    same representatives, in the same order, as
    :func:`enumerate_free_trees`.  No :class:`Tree` is built.
    """
    target = 0 if census_class is CensusClass.ORANGE else 1
    versal_rank = 1 if census_class is CensusClass.UNIMODAL_VERSAL else 0
    generic = census_class is CensusClass.UNIMODAL_GENERIC
    width = _carried_width(n)
    # each bucket: the i(T) of its first tree, or for generic ones the least,
    # then every tree's parent array, one byte a parent (all are below
    # n <= 20), the root's implied
    buckets: dict[int, list] = {}
    for parent, packed, total in _carried_size_vectors(
        n, _free_tree_parents(n, target), generic
    ):
        bucket = buckets.setdefault(packed, [total])
        if total != bucket[0]:
            if not generic:
                raise AssertionError(
                    f"trees of one size vector have {bucket[0]} and {total} independent sets"
                )
            bucket[0] = min(bucket[0], total)
        bucket.append(bytes(parent[1:]))
    vectors = (_unpack_checked(packed, width, b[0], generic) for packed, b in buckets.items())
    polys: list[Poly] = []
    while batch := list(islice(vectors, _WEIGH_BATCH)):
        polys += _weigh_by_size(batch, n + versal_rank)
    ordered = sorted(zip(polys, buckets.values()), key=lambda kv: kv[0].coeffs)
    collisions = tuple(
        tuple(_graph6(n, zip(a, range(1, n))) for a in bucket[1:])
        for _, bucket in ordered
        if len(bucket) > 2
    )
    return CensusReport(
        n=n,
        census_class=census_class,
        tree_count=sum(map(len, buckets.values())) - len(buckets),
        distinct_polynomial_count=len(buckets),
        collisions=collisions,
        polynomials=tuple(p for p, _ in ordered),
    )
