"""Shared corpus fixtures: enumerated trees are cached per size so the
exhaustive suites pay for generation once."""

from __future__ import annotations

import functools
import heapq
import sys
from typing import Sequence

import pytest

from treecount.coloring import canonical_coloring, red_green_components
from treecount.trees import Tree, enumerate_free_trees


@functools.lru_cache(maxsize=None)
def trees_of_size(n: int) -> tuple[Tree, ...]:
    return tuple(enumerate_free_trees(n))


def trees_up_to(n: int):
    for k in range(1, n + 1):
        yield from trees_of_size(k)


def prufer_decode(seq: Sequence[int], n: int) -> Tree:
    """Labelled tree on ``0..n-1`` from a Prufer sequence (length n-2)."""
    if n < 2:
        if seq:
            raise ValueError("sequence must be empty for n < 2")
        return Tree(1, ())
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


@functools.lru_cache(maxsize=None)
def colored(t: Tree):
    c = canonical_coloring(t)
    return c, red_green_components(t, c)


@pytest.fixture
def figure_tree() -> Tree:
    """The running example: orange pair {0,1}, greens {3,5}, reds {2,4,6}."""
    return Tree(7, ((0, 1), (1, 3), (3, 2), (3, 4), (4, 5), (5, 6)))


@pytest.fixture
def coloring_calls(monkeypatch) -> list[int]:
    """Records the size of every tree colored through any treecount module
    that bound :func:`canonical_coloring`."""
    calls: list[int] = []

    def counted(t):
        calls.append(t.n)
        return canonical_coloring(t)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("treecount") and (
            vars(mod).get("canonical_coloring") is canonical_coloring
        ):
            monkeypatch.setattr(mod, "canonical_coloring", counted)
    return calls
