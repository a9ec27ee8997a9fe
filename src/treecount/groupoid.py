"""Coefficient jumps, normalization onto a matching, rank, genericity.

Coefficients stay monic Laurent monomials throughout: a vertex carries an
integer exponent vector over formal symbols ``a_w`` (one symbol per vertex
of the tree), and a jump of ``u`` over a neighbor ``v`` clears the vector
at ``u`` while dividing every other neighbor of ``v`` by it.  Normalizing
along a maximum matching pushes all coefficients onto the red vertices the
matching misses; the order of jumps is a linear extension of an explicit
acyclic auxiliary graph, by default the one
:class:`graphlib.TopologicalSorter` gives, and the result does not depend
on which extension is used.  A jump rebuilds only the deg(v) vectors it
changes, so normalizing costs O(n) vector rebuilds plus one O(n) tuple
copy per jump.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .coloring import (
    Color,
    Coloring,
    RedGreenComponent,
    RedGreenPartition,
)
from .matchings import (
    admissible_sets,
    maximum_matching_size,
    uncovered_vertices,
)
from .trees import Edge, Tree, normalize_edge

ExponentVector = dict[int, int]
PackedVector = tuple[tuple[int, int], ...]


class JumpError(ValueError):
    """A jump of a kind the groupoid does not admit."""


class CoefficientState(NamedTuple):
    """Per-vertex exponent vectors over the symbols ``a_w``."""

    coeff: tuple[PackedVector, ...]

    @staticmethod
    def from_dicts(vectors: Sequence[Mapping[int, int]]) -> CoefficientState:
        return CoefficientState(tuple(_pack(vec) for vec in vectors))

    @staticmethod
    def initial(t: Tree) -> CoefficientState:
        """The generic start: symbol ``a_v`` with exponent 1 at every vertex."""
        return CoefficientState.from_dicts([{v: 1} for v in range(t.n)])

    def vector(self, v: int) -> ExponentVector:
        return dict(self.coeff[v])

    def support(self) -> list[int]:
        return [v for v, c in enumerate(self.coeff) if c]

    def symbols(self, v: int) -> set[int]:
        return {s for s, _ in self.coeff[v]}


def _pack(vec: Mapping[int, int]) -> PackedVector:
    return tuple(sorted((s, e) for s, e in vec.items() if e))


def _allowed_jump(c: Coloring, u: int, v: int) -> bool:
    cu, cv = c.colors[u], c.colors[v]
    if cu is Color.RED and cv is Color.GREEN:
        return True
    if cu is Color.GREEN and cv is Color.RED:
        return True
    if cu is Color.ORANGE and cv is Color.ORANGE:
        return normalize_edge(u, v) in c.dominoes
    return False


def jump(s: CoefficientState, t: Tree, c: Coloring, u: int, v: int) -> CoefficientState:
    """Jump the coefficient of ``u`` over its neighbor ``v``.

    The vector at ``u`` becomes trivial and every other neighbor of ``v`` is
    divided by the old vector; ``v`` itself is untouched.  Only red-over-
    green, green-over-red and orange-over-matched-orange jumps are allowed.
    The cost is O(deg(v)) vector rebuilds plus one copy of the state tuple:
    every other vertex keeps its entry, the same tuple object.
    """
    if not t.has_edge(u, v):
        raise JumpError(f"{u}-{v} is not an edge")
    if not _allowed_jump(c, u, v):
        raise JumpError(
            f"jump {u} over {v} is not red/green, green/red or a matched orange pair"
        )
    old = s.coeff[u]
    coeff = list(s.coeff)
    for w in t.neighbors[v]:
        if w == u:
            coeff[u] = ()
        else:
            vec = dict(coeff[w])
            for sym, e in old:
                vec[sym] = vec.get(sym, 0) - e
            coeff[w] = _pack(vec)
    return CoefficientState(tuple(coeff))


def jump_graph(t: Tree, m: frozenset[Edge]) -> dict[int, set[int]]:
    """The auxiliary oriented graph: u -> w when u-v is a domino of the
    matching and v-w another edge of the tree."""
    partner = {}
    for a, b in m:
        partner[a] = b
        partner[b] = a
    out: dict[int, set[int]] = {v: set() for v in range(t.n)}
    for u, v in partner.items():
        for w in t.neighbors[v]:
            if w != u:
                out[u].add(w)
    return out


def is_linear_extension(order: Sequence[int], succ: dict[int, set[int]]) -> bool:
    pos = {v: i for i, v in enumerate(order)}
    return all(
        pos[u] < pos[w]
        for u in order
        for w in succ[u]
        if w in pos
    )


def normalize_to_matching(
    s: CoefficientState,
    t: Tree,
    c: Coloring,
    m: frozenset[Edge],
    order: Sequence[int] | None = None,
) -> CoefficientState:
    """Push all coefficients onto the red vertices the matching misses.

    Every covered vertex jumps exactly once, over its matched partner, in a
    linear extension of the jump graph.  Passing ``order`` overrides the
    default extension; it is validated and exists only so tests can assert
    order-independence.
    """
    if len(m) != maximum_matching_size(t):
        raise ValueError("matching is not maximum")
    partner = {}
    for a, b in m:
        partner[a] = b
        partner[b] = a
    succ = jump_graph(t, m)
    covered = sorted(partner)
    if order is None:
        from graphlib import TopologicalSorter

        pred: dict[int, list[int]] = {v: [] for v in covered}
        for u in covered:
            for w in succ[u]:
                if w in partner:
                    pred[w].append(u)
        order = list(TopologicalSorter(pred).static_order())
    else:
        order = list(order)
        if sorted(order) != covered or not is_linear_extension(order, succ):
            raise ValueError("order is not a linear extension of the jump graph")
    state = s
    for u in order:
        state = jump(state, t, c, u, partner[u])
    uncovered = set(uncovered_vertices(t, m))
    bad = [v for v in state.support() if v not in uncovered]
    if bad:
        raise AssertionError(f"normalized state supported off the matching gaps: {bad}")
    return state


# ---------------------------------------------------------------------------
# Rank
# ---------------------------------------------------------------------------

class RankProfile(NamedTuple):
    """Per-component dimensions split by the generic/versal choice."""

    component_dimensions: tuple[int, ...]
    generic: tuple[bool, ...]

    @property
    def rank(self) -> int:
        return sum(d for d, g in zip(self.component_dimensions, self.generic) if g)

    @property
    def versal_rank(self) -> int:
        return sum(d for d, g in zip(self.component_dimensions, self.generic) if not g)


def rank_profile(partition: RedGreenPartition, generic_flags: Sequence[bool]) -> RankProfile:
    """Dimensions of the components with the generic/versal split.

    ``generic_flags`` is aligned with the partition's component order; every
    component must be covered and every dimension is at least 1.
    """
    if len(generic_flags) != len(partition):
        raise ValueError("one generic/versal choice per red-green component")
    dims = tuple(comp.dimension for comp in partition)
    if any(d < 1 for d in dims):
        raise AssertionError("red-green component of dimension < 1")
    return RankProfile(dims, tuple(bool(g) for g in generic_flags))


# ---------------------------------------------------------------------------
# Genericity
# ---------------------------------------------------------------------------

GenericityPattern = tuple[int, tuple[tuple[int, int], ...]]


def genericity_patterns(component: RedGreenComponent) -> list[GenericityPattern]:
    """The (|S| mod 2, signed members) pair of every admissible set S under
    every valid sign assignment up to the global flip; they depend on the
    component only."""
    patterns = []
    for adm in admissible_sets(component):
        parity = len(adm.vertices) % 2
        # the valid assignments flip any set of blocks; block 0 stays, since
        # flipping every block inverts the alternating product and the
        # target (-1)**|S| is its own inverse
        for mask in range(1 << (len(adm.blocks) - 1)):
            sign = dict(zip(adm.vertices, adm.signs))
            for i, block in enumerate(adm.blocks[1:]):
                if mask >> i & 1:
                    for v in block:
                        sign[v] = -sign[v]
            patterns.append((parity, tuple(sign.items())))
    return patterns


def is_generic(
    patterns: Sequence[GenericityPattern], values: Mapping[int, int], q: int
) -> bool:
    """Whether nonzero values avoid every pattern over F_q: the alternating
    product over each must differ from (-1)**|S|.  Members missing from
    ``values`` carry the trivial value 1."""
    for parity, signed in patterns:
        prod = 1
        for v, sg in signed:
            val = values.get(v, 1)
            prod = prod * (val if sg > 0 else pow(val, q - 2, q)) % q
        if prod == (q - 1 if parity else 1) % q:
            return False
    return True


def genericity_check(
    component: RedGreenComponent,
    alpha: Mapping[int, int],
    q: int,
) -> bool:
    """Whether the parameters are generic on this component over F_q.

    For every admissible set S (under every valid sign assignment), the
    alternating product of the alpha values must differ from (-1)**|S|.
    Vertices missing from ``alpha`` carry the trivial value 1.
    """
    values = {v: alpha.get(v, 1) % q for v in component.reds}
    if any(val == 0 for val in values.values()):
        raise ValueError("alpha values must be nonzero in F_q")
    return is_generic(genericity_patterns(component), values, q)
