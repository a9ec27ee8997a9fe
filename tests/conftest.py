"""Shared corpus fixtures: enumerated trees are cached per size so the
exhaustive suites pay for generation once."""

from __future__ import annotations

import functools
import sys

import pytest

from treecount.coloring import canonical_coloring, red_green_components
from treecount.trees import Tree, enumerate_free_trees


@functools.lru_cache(maxsize=None)
def trees_of_size(n: int) -> tuple[Tree, ...]:
    return tuple(enumerate_free_trees(n))


def trees_up_to(n: int):
    for k in range(1, n + 1):
        yield from trees_of_size(k)


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

    def counted(t, *args, **kwargs):
        calls.append(t.n)
        return canonical_coloring(t, *args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("treecount") and (
            vars(mod).get("canonical_coloring") is canonical_coloring
        ):
            monkeypatch.setattr(mod, "canonical_coloring", counted)
    return calls
