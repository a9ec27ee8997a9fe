"""Trees, forests, graph6 I/O, canonical forms and exhaustive generation.

Everything downstream works on the :class:`Tree` type defined here: a
connected acyclic graph on vertices ``0..n-1``.  The module also provides
the graph6 codec (short and long form, n <= 258047), an AHU-style canonical
key for labelled trees (used for isomorphism tests and, with vertex labels,
as the memo key of the leaf/domino recursion in :mod:`treecount.oracles`),
vertex removal into :class:`Forest`, and the Wright-Richmond-Odlyzko-McKay
generator of free trees up to isomorphism (n <= 20).  The generator walks
one level sequence per class and needs no key; its parent arrays can be
filtered, as the census does, before any :class:`Tree` is built.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Tree:
    """Immutable tree on vertices ``0..n-1``.

    Construction validates connectivity and acyclicity; adjacency lists are
    precomputed.  Only the free-tree enumeration skips the validation, for
    trees it builds from parent arrays (:func:`_tree_from_parents`).
    """

    n: int
    edges: tuple[Edge, ...]
    neighbors: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("a tree has at least one vertex")
        edges = tuple(sorted(normalize_edge(u, v) for u, v in self.edges))
        if len(edges) != self.n - 1:
            raise NotATreeError(f"{len(edges)} edges for {self.n} vertices")
        if len(set(edges)) != len(edges):
            raise NotATreeError("duplicate edge")
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in edges:
            if u == v:
                raise NotATreeError("self-loop")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("vertex label out of range")
            adj[u].append(v)
            adj[v].append(u)
        # n-1 edges + reachability of every vertex from 0 == tree
        seen = [False] * self.n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    count += 1
                    stack.append(y)
        if count != self.n:
            raise NotATreeError("graph is not connected")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "neighbors", tuple(tuple(sorted(a)) for a in adj))

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors[u]


@dataclass(frozen=True)
class Forest:
    """Disjoint union of trees with maps back to the original labels.

    ``orig[i][x]`` is the label, in the graph the forest was cut from, of
    local vertex ``x`` of component ``i``.  Component vertex sets partition
    the set of surviving original labels.
    """

    components: tuple[Tree, ...]
    orig: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.components) != len(self.orig):
            raise ValueError("one label map per component")
        labels = [x for m in self.orig for x in m]
        if len(labels) != len(set(labels)):
            raise ValueError("label maps overlap")

    @property
    def n(self) -> int:
        return sum(t.n for t in self.components)

    def __iter__(self) -> Iterator[tuple[Tree, tuple[int, ...]]]:
        return iter(zip(self.components, self.orig))


def single_vertex() -> Tree:
    return Tree(1, ())


def remove_vertices(t: Tree, drop: Iterable[int]) -> Forest:
    """Induced forest on the complement of ``drop``, with label maps back."""
    dropped = set(drop)
    if not dropped <= set(range(t.n)):
        raise ValueError("vertex to remove is not in the tree")
    keep = [v for v in range(t.n) if v not in dropped]
    comp_of: dict[int, int] = {}
    comps: list[list[int]] = []
    for start in keep:
        if start in comp_of:
            continue
        idx = len(comps)
        members = [start]
        comp_of[start] = idx
        stack = [start]
        while stack:
            x = stack.pop()
            for y in t.neighbors[x]:
                if y not in dropped and y not in comp_of:
                    comp_of[y] = idx
                    members.append(y)
                    stack.append(y)
        comps.append(sorted(members))
    trees = []
    for members in comps:
        local = {x: i for i, x in enumerate(members)}
        edges = tuple(
            (local[u], local[v]) for u, v in t.edges if u in local and v in local
        )
        trees.append(Tree(len(members), edges))
    return Forest(tuple(trees), tuple(tuple(m) for m in comps))


def relabel(t: Tree, perm: Sequence[int]) -> Tree:
    """Apply the permutation ``perm`` (old label -> new label) to a tree."""
    if sorted(perm) != list(range(t.n)):
        raise ValueError("not a permutation of the vertex set")
    return Tree(t.n, tuple((perm[u], perm[v]) for u, v in t.edges))


# ---------------------------------------------------------------------------
# graph6 codec (McKay's formats.txt: n <= 62 in one byte, else "~" + 18 bits)
# ---------------------------------------------------------------------------

def _graph6_size(s: str) -> tuple[int, str]:
    """Vertex count from a graph6 header, plus the payload that follows."""
    if s[0] != "~":
        return ord(s[0]) - 63, s[1:]
    if s[1:2] == "~":
        raise Graph6Error(f"graph6 supports n <= {MAX_GRAPH6_VERTICES}")
    if len(s) < 4:
        raise Graph6Error("truncated long-form graph6 header")
    n = 0
    for ch in s[1:4]:
        n = (n << 6) | (ord(ch) - 63)
    return n, s[4:]


def read_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Decode a graph6 record into ``(n, edges)`` for any graph."""
    s = text.strip()
    if not s:
        raise Graph6Error("empty graph6 string")
    if not all(63 <= ord(ch) <= 126 for ch in s):
        raise Graph6Error("graph6 character out of range")
    n, body = _graph6_size(s)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        raise Graph6Error(
            f"expected {nbytes} payload characters for n={n}, got {len(body)}"
        )
    bits: list[int] = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits")
    edges = []
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                edges.append((u, v))
            k += 1
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
    the long-form size header above 62 vertices.

    Edge u < v is bit v(v-1)/2 + u of the upper triangle, so only the n - 1
    edge bits are set, six to a character, high bit first."""
    n = t.n
    if n > MAX_GRAPH6_VERTICES:
        raise Graph6Error(f"graph6 supports n <= {MAX_GRAPH6_VERTICES}")
    groups = bytearray((n * (n - 1) // 2 + 5) // 6)
    for u, v in t.edges:
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
        return single_vertex(), base
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


def _rooted_aut(t: Tree, root: int, banned: int) -> tuple[bytes, int]:
    """Signature and automorphism-group order of the subtree at ``root`` when
    the edge to ``banned`` is cut."""
    done: dict[int, tuple[bytes, int]] = {}
    for v, parent in reversed(_rooted_order(t, root, banned)):
        sigs = sorted(done.pop(w) for w in t.neighbors[v] if w != parent)
        aut = 1
        for _, grp in itertools.groupby(sigs, key=lambda p: p[0]):
            block = list(grp)
            for _, sub in block:
                aut *= sub
            aut *= _factorial(len(block))
        done[v] = (b"(" + b"".join(s for s, _ in sigs) + b")", aut)
    return done[root]


def _factorial(m: int) -> int:
    out = 1
    for i in range(2, m + 1):
        out *= i
    return out


def automorphism_count(t: Tree) -> int:
    """Order of the automorphism group of an unlabelled tree."""
    centers = tree_centers(t)
    if len(centers) == 1:
        return _rooted_aut(t, centers[0], -1)[1]
    a, b = centers
    ka, auta = _rooted_aut(t, a, b)
    kb, autb = _rooted_aut(t, b, a)
    total = auta * autb
    if ka == kb:
        total *= 2
    return total


# ---------------------------------------------------------------------------
# Exhaustive generation of free trees
# ---------------------------------------------------------------------------

def _next_rooted(
    levels: list[int], parent: list[int], p: int
) -> tuple[list[int], list[int]] | None:
    """Beyer-Hedetniemi successor of a canonical level sequence (root at
    level 0) and its parent array, taken at position ``p``: keep the prefix
    before ``p`` and replay, from ``p`` on, the block that starts at the
    parent ``q`` of ``p``.  Each copy of the block hangs from the parent of
    ``q``; its other parents move with it."""
    if p == 0:
        return None
    q = parent[p]
    d = p - q
    out = levels[:p]
    par = parent[:p]
    for j in range(q, q + len(levels) - p):
        out.append(out[j])
        x = par[j]
        par.append(x + d if x >= q else x)
    return out, par


def _second_child(levels: list[int]) -> int:
    """Position of the root's second child, or the length if it has one."""
    try:
        return levels.index(1, 2)
    except ValueError:
        return len(levels)


def check_enumeration_size(n: int) -> None:
    """Raise :class:`SizeGuardError` when n is above the enumeration bound."""
    if n > MAX_ENUMERATION_VERTICES:
        raise SizeGuardError(
            f"free-tree enumeration guarded at n <= {MAX_ENUMERATION_VERTICES}, "
            f"got n = {n}"
        )


def _free_tree_parents(n: int) -> Iterator[list[int]]:
    """Parent array of one rooted representative per free tree on n vertices.

    Wright, Richmond, Odlyzko and McKay, SIAM J. Comput. 15 (1986) 540-548:
    walk the level sequences of trees rooted at a centre in Beyer-Hedetniemi
    order, starting from the path.  A sequence stands for its free tree when
    the first subtree of the root (``left``) is no higher than the rest of
    the tree, no larger when the heights tie, and not lexicographically
    greater when the sizes tie too.  An invalid sequence jumps past every
    rooted tree that keeps the same invalid ``left``.  Vertices are numbered
    in pre-order, so ``parent[0] == -1`` and ``parent[v] < v`` otherwise.
    """
    if n < 1:
        raise ValueError("a tree has at least one vertex")
    check_enumeration_size(n)
    if n == 1:
        yield [-1]
        return
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    parent = list(range(-1, n - 1))
    if n > 2:
        parent[n // 2 + 1] = 0  # the second arm of the path hangs from the root
    state: tuple[list[int], list[int]] | None = (levels, parent)
    while state is not None:
        levels, parent = state
        m = _second_child(levels)
        left = (max(levels[1:m]) - 1, m - 1)  # height and size
        rest = (max(levels[m:], default=0), n - m + 1)
        valid = left < rest or (
            left == rest and [x - 1 for x in levels[1:m]] <= [0] + levels[m:]
        )
        if valid:
            yield parent
            p = n - 1
            while levels[p] == 1:
                p -= 1
            state = _next_rooted(levels, parent, p)
        else:
            p = m - 1  # the last vertex of ``left``
            state = _next_rooted(levels, parent, p)
            if levels[p] > 2:
                # end with a path from the root as deep as the new ``left``
                nxt, par = state
                height = max(nxt[1 : _second_child(nxt)])
                nxt[n - height :] = range(1, height + 1)
                par[n - height :] = [0, *range(n - height, n - 1)]


def _tree_from_parents(parent: Sequence[int]) -> Tree:
    """The tree with edges ``parent[v]-v``, built without validation.

    Only for parent arrays with ``parent[v] < v`` for v >= 1, which are trees
    by construction.  Filling the adjacency in index order lists each
    vertex's parent before its children, in increasing order, so no list
    needs sorting.
    """
    n = len(parent)
    adj: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        u = parent[v]
        adj[u].append(v)
        adj[v].append(u)
    t = object.__new__(Tree)
    object.__setattr__(t, "n", n)
    object.__setattr__(t, "edges", tuple(sorted(zip(parent[1:], range(1, n)))))
    object.__setattr__(t, "neighbors", tuple(map(tuple, adj)))
    return t


def enumerate_free_trees(n: int) -> Iterator[Tree]:
    """One representative per isomorphism class of trees on n vertices, in
    the order of the Wright-Richmond-Odlyzko-McKay walk
    (:func:`_free_tree_parents`)."""
    return map(_tree_from_parents, _free_tree_parents(n))


def prufer_decode(seq: Sequence[int], n: int) -> Tree:
    """Labelled tree on ``0..n-1`` from a Prufer sequence (length n-2)."""
    if n < 2:
        if seq:
            raise ValueError("sequence must be empty for n < 2")
        return single_vertex()
    if len(seq) != n - 2:
        raise ValueError("sequence length must be n - 2")
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Tree(n, tuple(edges))
