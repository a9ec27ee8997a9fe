"""Trees, graph6 I/O, canonical forms and exhaustive generation.

Everything downstream works on the :class:`Tree` type defined here: a
connected acyclic graph on vertices ``0..n-1`` that carries its rooting at
vertex 0 and the greedy leaf-up maximum matching of that rooting.  The
module also provides the graph6 codec (short and long form, n <= 258047),
an AHU-style canonical key for labelled trees (used for isomorphism tests
and, with vertex labels, as the memo key of the leaf/domino recursion in
the test suite's ``tests/oracles.py``), the greedy matching of any parent array, and the
Wright-Richmond-Odlyzko-McKay generator of free trees up to isomorphism
(n <= 20).  The generator walks one level sequence per class, stepping it
in place, and needs no key.  Each step also updates the position of the
root's second child and the heights of the root's first subtree and of the
rest, so the test of whether a sequence stands for its free tree reads
them in O(1) time, with a list comparison only when both heights and sizes
tie.  Asked for a matching deficiency, it carries along the walk how the
greedy matching treats every subtree already closed (a chain of the open
vertices, each with its number of free children), so a step re-reads only
the positions it rewrote; it yields only the trees that have the
deficiency and skips the sequences that cannot.
Each array comes with the lowest position the walk rewrote since the one
before.  :func:`enumerate_free_trees` builds a :class:`Tree` from each
parent array; the census counts and prints the arrays themselves, refolding
a chain of its own from that position on, and builds no :class:`Tree`.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

MAX_GRAPH6_VERTICES = 258047
MAX_ENUMERATION_VERTICES = 20


class Graph6Error(ValueError):
    """Malformed or unsupported graph6 input."""


class NotATreeError(ValueError):
    """Input graph is not connected and acyclic."""


class SizeGuardError(ValueError):
    """An exhaustive search was asked for more than it is guarded to do."""


Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """The edge u-v with its smaller end first."""
    return (u, v) if u < v else (v, u)


class Tree:
    """Immutable tree on vertices ``0..n-1``.

    Construction validates the tree and roots it at 0 by a depth-first
    search over the sorted adjacency lists: ``order`` lists the vertices
    children first, ``parent`` gives each one's parent (-1 at the root).
    """

    def __init__(self, n: int, edges: tuple[Edge, ...]) -> None:
        if n < 1:
            raise ValueError("a tree has at least one vertex")
        edges = tuple(sorted(normalize_edge(u, v) for u, v in edges))
        if len(edges) != n - 1:
            raise NotATreeError(f"{len(edges)} edges for {n} vertices")
        if len(set(edges)) != len(edges):
            raise NotATreeError("duplicate edge")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise NotATreeError("self-loop")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("vertex label out of range")
            adj[u].append(v)
            adj[v].append(u)
        # edges come sorted with u < v, so every list fills in increasing order
        neighbors = tuple(map(tuple, adj))
        # n-1 edges + reachability of every vertex from 0 == tree (-2: unreached)
        parent = [-1] + [-2] * (n - 1)
        order = []
        stack = [0]
        while stack:
            x = stack.pop()
            order.append(x)
            for y in neighbors[x]:
                if parent[y] == -2:
                    parent[y] = x
                    stack.append(y)
        if len(order) != n:
            raise NotATreeError("graph is not connected")
        self.n = n
        self.edges = edges
        self.neighbors = neighbors
        self.order = tuple(reversed(order))
        self.parent = tuple(parent)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tree) and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Tree(n={self.n}, edges={self.edges!r})"

    @cached_property
    def mate(self) -> tuple[int, ...]:
        """The greedy matching of the rooting (:func:`_greedy_mates`), built
        on first use: ``mate[v]`` is v's partner, -1 if none."""
        return tuple(_greedy_mates(self.order, self.parent))

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors[u]


def _greedy_mates(order: Sequence[int], parent: Sequence[int]) -> list[int]:
    """The greedy leaf-up matching as a mate array: ``mate[v]`` is the vertex
    matched to v, -1 when v is unmatched.

    ``order`` lists the vertices children first and ``parent`` gives each
    one's parent (-1 at the root).  When v's turn comes every child of v is
    matched, or v would already be taken, so v is a leaf of what is left;
    matching a leaf to its free neighbour keeps the matching extendable to a
    maximum one, so the result is a maximum matching.
    """
    mate = [-1] * len(parent)
    for v in order:
        if mate[v] < 0:
            p = parent[v]
            if p >= 0 and mate[p] < 0:
                mate[p] = v
                mate[v] = p
    return mate


# ---------------------------------------------------------------------------
# graph6 codec (McKay's formats.txt: n <= 62 in one byte, else "~" + 18 bits)
# ---------------------------------------------------------------------------

_GRAPH6_TEXT = re.compile(r"[?-~]+")  # the characters chr(63) to chr(126)
_GRAPH6_SET = re.compile(r"[^?]")  # a payload character with a set bit


def _graph6_size(s: str) -> tuple[int, int]:
    """Vertex count from a graph6 header, plus the payload's offset."""
    if s[0] != "~":
        return ord(s[0]) - 63, 1
    if s[1:2] == "~":
        raise Graph6Error(f"graph6 supports n <= {MAX_GRAPH6_VERTICES}")
    if len(s) < 4:
        raise Graph6Error("truncated long-form graph6 header")
    n = 0
    for ch in s[1:4]:
        n = (n << 6) | (ord(ch) - 63)
    return n, 4


def read_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Decode a graph6 record into ``(n, edges)`` for any graph.

    Only the payload characters other than ``?`` (six clear bits) are read,
    so the cost follows the edges, not the n(n-1)/2 pairs; bit k of the
    upper triangle is edge u-v for the largest v with v(v-1)/2 <= k."""
    s = text.strip()
    if not s:
        raise Graph6Error("empty graph6 string")
    if not _GRAPH6_TEXT.fullmatch(s):
        raise Graph6Error("graph6 character out of range")
    n, start = _graph6_size(s)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - start != nbytes:
        raise Graph6Error(
            f"expected {nbytes} payload characters for n={n}, got {len(s) - start}"
        )
    edges = []
    for m in _GRAPH6_SET.finditer(s, start):
        val = ord(m.group()) - 63
        for b in range(6):
            if val & (32 >> b):
                k = 6 * (m.start() - start) + b
                if k >= nbits:
                    raise Graph6Error("nonzero padding bits")
                v = (1 + math.isqrt(8 * k + 1)) // 2
                edges.append((k - v * (v - 1) // 2, v))
    return n, edges


def parse_graph6(text: str) -> Tree:
    """Decode a graph6 record that must encode a tree."""
    n, edges = read_graph6(text)
    try:
        return Tree(n, tuple(edges))
    except NotATreeError as exc:
        raise NotATreeError(f"graph6 {text.strip()!r} is not a tree: {exc}") from exc


# byte b -> the graph6 character chr(b + 63); only b < 64 occurs
_GRAPH6_CHARS = bytes((b + 63) % 256 for b in range(256))


def emit_graph6(t: Tree) -> str:
    """Standard graph6 encoding (bit-exact, upper triangle by columns), with
    the long-form size header above 62 vertices."""
    return _graph6(t.n, t.edges)


def _graph6(n: int, edges: Iterable[Edge]) -> str:
    """graph6 of the graph on n vertices with the given edges u-v, u < v.

    Edge u-v is bit v(v-1)/2 + u of the upper triangle, so only the edge
    bits are set, six to a character, high bit first."""
    if n > MAX_GRAPH6_VERTICES:
        raise Graph6Error(f"graph6 supports n <= {MAX_GRAPH6_VERTICES}")
    groups = bytearray((n * (n - 1) // 2 + 5) // 6)
    for u, v in edges:
        k = v * (v - 1) // 2 + u
        groups[k // 6] |= 32 >> k % 6
    if n <= 62:
        header = chr(n + 63)
    else:
        header = "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
    return header + groups.translate(_GRAPH6_CHARS).decode("ascii")


def parse_edge_list(text: str, indexing: str = "auto") -> Tree:
    """Parse a ``u v`` per-line edge list.

    ``indexing`` is one of ``auto``, ``0``, ``1``.  Auto treats the input as
    1-based when no 0 appears and the labels are exactly ``1..n``.
    """
    return _read_edge_list(text, indexing)[0]


def _read_edge_list(text: str, indexing: str) -> tuple[Tree, int]:
    """:func:`parse_edge_list` plus the base, 0 or 1, the labels were read in."""
    pairs = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"expected 'u v' per line, got {line!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    if indexing not in ("auto", "0", "1"):
        raise ValueError("indexing must be auto, 0 or 1")
    labels = sorted({x for e in pairs for x in e})
    from_one = labels == list(range(1, len(labels) + 1))
    base = 1 if indexing == "1" or (indexing == "auto" and from_one) else 0
    if labels != list(range(base, base + len(labels))):
        raise ValueError("edge list labels are not contiguous from the base index")
    if not pairs:
        return Tree(1, ()), base
    return Tree(len(labels), tuple((u - base, v - base) for u, v in pairs)), base


# ---------------------------------------------------------------------------
# Canonical keys for labelled trees
# ---------------------------------------------------------------------------

def tree_centers(t: Tree) -> list[int]:
    """The one or two middle vertices obtained by repeatedly peeling leaves."""
    if t.n <= 2:
        return list(range(t.n))
    deg = [t.degree(v) for v in range(t.n)]
    layer = [v for v in range(t.n) if deg[v] == 1]
    remaining = t.n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for w in t.neighbors[v]:
                if deg[w] > 1:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(layer)


def _rooted_order(t: Tree, root: int, banned: int) -> list[tuple[int, int]]:
    """(vertex, parent) pairs of the subtree at ``root`` when the edge to
    ``banned`` is cut, each parent before its children."""
    order: list[tuple[int, int]] = []
    stack = [(root, banned)]
    while stack:
        v, parent = stack.pop()
        order.append((v, parent))
        for w in t.neighbors[v]:
            if w != parent:
                stack.append((w, v))
    return order


def _rooted_key(t: Tree, root: int, banned: int, label: Callable[[int], int]) -> bytes:
    """AHU signature of the subtree at ``root`` when the edge to ``banned`` is cut."""
    # Child signatures are sorted so the key is invariant under relabelling.
    sig: dict[int, bytes] = {}
    for v, parent in reversed(_rooted_order(t, root, banned)):
        children = sorted(sig[w] for w in t.neighbors[v] if w != parent)
        sig[v] = b"(%d:" % label(v) + b"".join(children) + b")"
    return sig[root]


def canonical_key(t: Tree, labels: Mapping[int, int] | Sequence[int] | None = None) -> bytes:
    """Canonical byte string of a tree with vertex labels from a small alphabet.

    Two labelled trees get the same key exactly when a label-preserving
    isomorphism exists.  Rooting is at the center, or at the ordered pair of
    half-tree keys for bicentral trees.
    """
    if labels is None:
        label = lambda v: 0
    elif isinstance(labels, Mapping):
        label = lambda v: labels.get(v, 0)
    else:
        label = labels.__getitem__
    centers = tree_centers(t)
    if len(centers) == 1:
        return b"C" + _rooted_key(t, centers[0], -1, label)
    a, b = centers
    ka = _rooted_key(t, a, b, label)
    kb = _rooted_key(t, b, a, label)
    if kb < ka:
        ka, kb = kb, ka
    return b"B" + ka + kb


# ---------------------------------------------------------------------------
# Exhaustive generation of free trees
# ---------------------------------------------------------------------------

def check_enumeration_size(n: int) -> None:
    """Raise :class:`SizeGuardError` when n is above the enumeration bound."""
    if n > MAX_ENUMERATION_VERTICES:
        raise SizeGuardError(
            f"free-tree enumeration guarded at n <= {MAX_ENUMERATION_VERTICES}, "
            f"got n = {n}"
        )


#: The open vertices of a level sequence read up to some position, as
#: nested pairs (free children of the deepest one, the rest of the chain);
#: the root is at the bottom, above None.
_Chain = tuple[int, "_Chain"] | None


def _free_tree_parents(n: int, deficiency: int | None = None) -> Iterator[tuple[list[int], int]]:
    """Parent array of one rooted representative per free tree on n vertices,
    with the lowest position rewritten since the previous array.

    Wright, Richmond, Odlyzko and McKay, SIAM J. Comput. 15 (1986) 540-548:
    walk the level sequences of trees rooted at a centre in Beyer-Hedetniemi
    order (SIAM J. Comput. 9 (1980)), starting from the path.  A step at
    position p keeps the prefix before p and replays, from p on, the block
    that starts at the parent q of p; each copy hangs from the parent of q
    and its other parents move with it.  A sequence stands for its free tree
    when the first subtree of the root (``left``) is no higher than the rest
    of the tree, no larger when the heights tie, and not lexicographically
    greater when the sizes tie too.  An invalid sequence jumps past every
    rooted tree that keeps the same invalid ``left``: it steps at the end of
    ``left`` and, if that vertex was deeper than 2, ends the sequence with a
    path from the root as deep as the new ``left``.  Vertices are numbered
    in pre-order, so ``parent[0] == -1`` and ``parent[v] < v`` otherwise.
    Each step rewrites ``levels`` and ``parent`` in place from its position
    on; every yielded array is a copy, which the caller may keep.  It comes
    with ``low``, the lowest position rewritten since the previous yield (1
    for the first array).  That is where the array first differs from the
    previous one: the steps keep the prefix before it, a step lowers the
    level at its own position, and the deep tail's path starts at level 1
    where the sequence was deeper.

    The validity test costs O(1) but for the rare list comparison: the loop
    that rewrites the sequence from p also keeps the position m of the
    root's second child (n if it has none) and ``hi[j]``, the highest level
    over positions 1 to j for j < m and over m to j for j >= m.  So ``left``
    has height ``hi[m - 1] - 1`` and size m - 1, and the rest of the tree
    height ``hi[n - 1]`` (0 if m = n) and size n - m + 1.  When p < m, no
    position from 2 to p - 1 is at level 1, so the new m is the first level-1
    position the loop writes.  A step thus costs O(n - p), as the rewrite
    does; the lists are compared only when heights and sizes both tie.

    With a ``deficiency`` d, only the trees whose greedy leaf-up matching
    (:func:`_greedy_mates`, vertices n-1 down to 0) leaves exactly d vertices
    unmatched are yielded, and the walk skips sequences that cannot have d.
    Whether a vertex is matched by one of its children depends on its
    subtree alone, the range of positions up to the next one at its level
    or lower, and so does which of its children stay unmatched.  The walk
    therefore reads each sequence from left to right keeping a chain of the
    open vertices (those whose subtree has not ended: the path from the
    root to the last position read), each with its number of free children,
    and the number of vertices left unmatched so far.  A position at level
    l closes every open vertex at level l or deeper, and the end of the
    sequence closes all of them.  A closing vertex with f > 0 free children
    is matched to the last of them and leaves the other f - 1 unmatched.
    One with none is free for its parent, or unmatched if it is the root.
    Those f - 1 are counted as they become certain, not when their parent
    closes: a vertex that closes free while its parent already has a free
    child adds one unmatched vertex, since the parent can take only one of
    them.  A closing vertex with free children adds nothing, so the final
    count is the same.  The chain and the count before every position are
    kept, so a sequence is read again only from the lowest position that a
    step rewrote.

    Sequences come in decreasing lexicographic order, so a later one that
    keeps the prefix before a position E is no deeper at E than this one
    and closes there at least the same vertices, on the same subtrees.  A
    child that closed free stays free and an open vertex's count of free
    children never falls, so every charge made up to E is made again and
    the running count is a lower bound on the final one.  When more than d
    vertices are counted once the vertices closing at E are closed, every
    later sequence that keeps the prefix before E has too many.  The walk
    stops reading there and steps at the last position before E whose level
    is not 1, as after a yield, which skips exactly those; level-1 positions
    cannot decrease, and the root ends the walk.
    """
    if n < 1:
        raise ValueError("a tree has at least one vertex")
    check_enumeration_size(n)
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    parent = list(range(-1, n - 1))
    if n > 2:
        parent[n // 2 + 1] = 0  # the second arm of the path hangs from the root
    # chain_at[k], lost_at[k]: the open vertices and the count of vertices
    # certain to be unmatched before position k, valid for every k up to ``read``
    chain_at: list[_Chain] = [None] * (n + 1)
    lost_at = [0] * (n + 1)
    chain_at[1] = (0, None)
    read = low = 1
    # both arms of the path climb from the root, so hi starts as levels
    m = n // 2 + 1
    hi = levels[:]
    while True:
        left_height = hi[m - 1] - 1
        rest_height = hi[n - 1] if m < n else 0
        valid = left_height < rest_height or left_height == rest_height and (
            2 * m < n + 2  # ``left`` has fewer vertices than the rest
            or 2 * m == n + 2
            and [x - 1 for x in levels[1:m]] <= [0] + levels[m:]
        )
        if valid:
            p = n - 1
            if deficiency is not None:
                k = read
                chain, lost = chain_at[k], lost_at[k]
                while True:
                    # close the open vertices whose subtrees end at k
                    for _ in range(levels[k - 1] - (levels[k] if k < n else 0) + 1):
                        f, chain = chain
                        if f:
                            continue  # matched to one free child
                        if chain is None:
                            lost += 1  # a free root
                        else:
                            g, rest = chain
                            if g:
                                lost += 1  # a free child past the first
                            chain = (g + 1, rest)  # free for its parent
                    if lost > deficiency or k == n:
                        break
                    k += 1
                    chain = chain_at[k] = (0, chain)
                    lost_at[k] = lost
                read = k
                if lost > deficiency:
                    p = k - 1
            if deficiency is None or lost == deficiency:
                yield parent[:], low
                low = n
            while levels[p] == 1:
                p -= 1
            if p == 0:
                return
            deep = False
        else:
            p = m - 1  # the last vertex of ``left``
            deep = levels[p] > 2
        # the Beyer-Hedetniemi step at p, keeping m and hi as it rewrites
        q = parent[p]
        d = p - q
        h = hi[p - 1]
        if p < m:
            m = n  # until the loop finds a level-1 position
        for j in range(p, n):
            level = levels[j] = levels[j - d]
            x = parent[j - d]
            parent[j] = x + d if x >= q else x
            if level > h:
                h = level
            elif level == 1 and j < m:
                m, h = j, 1
            hi[j] = h
        if deep:
            # The copies hang at level 2 or deeper, so ``left`` now runs to
            # the end and m = n: end it with a path from the root as deep as
            # ``left``, whose first vertex is the new m.
            height = hi[n - 1]
            m = n - height
            levels[m:] = hi[m:] = range(1, height + 1)
            parent[m:] = [0, *range(m, n - 1)]
            # The tail may start before p.  Up to n = 19 ``read`` was
            # then already at or below its start, but nothing proves
            # that, so the min keeps the chain restore correct anyway.
            p = min(p, m)
        if p < read:
            read = p
        if p < low:
            low = p


def enumerate_free_trees(n: int) -> Iterator[Tree]:
    """One representative per isomorphism class of trees on n vertices, in
    the order of the Wright-Richmond-Odlyzko-McKay walk
    (:func:`_free_tree_parents`), each built from its parent array."""
    for parent, _ in _free_tree_parents(n):
        yield Tree(n, tuple(zip(parent[1:], range(1, n))))
