"""Pivot-eating median splits and full 2^d-ary levels.

A median split at cell size n picks the r-th smallest point in the strict
(value, index) order, r = floor((n + 1) / 2), as the pivot. The pivot is
consumed: it belongs to neither child. Both children are then strictly
smaller than the parent, which is what guarantees termination no matter how
degenerate the coordinates are.

The kernel never sorts a cell. It compares the dataset's presorted ranks
(``Dataset.ranks``), which encode the strict order of the whole dataset and
therefore of every subset of it: a cell's own ranks order its own points
exactly as sorting them would. Selecting the r-th smallest rank is a linear
partition, and masking the cell's ascending indices by rank keeps each child
ascending without a sort (SLIQ/CART-style presorting).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# strict_rank is the public statement of the order the kernel's ranks encode;
# it stays importable here, where perfbench/layers.py looks it up
from .core import DataView, strict_rank  # noqa: F401


@dataclass(frozen=True)
class MedianSplit:
    """One cut: split dimension, consumed pivot, threshold, two children.

    low holds the r-1 points strictly below the pivot in (value, index)
    order, high the n-r points above it. For odd n both children have
    (n-1)/2 points; for even n they have (n-2)/2 and n/2.
    """

    dim: int
    pivot_index: int
    threshold: float
    low: DataView
    high: DataView


def median_split(view: DataView, dim: int) -> MedianSplit:
    n = view.n
    if n < 1:
        raise ValueError("cannot median-split an empty view")
    dataset = view.dataset
    if not 0 <= dim < dataset.d:
        raise ValueError(f"dimension {dim} out of range for d={dataset.d}")
    indices = view.indices
    rk = dataset.ranks[dim][indices]
    r = (n + 1) // 2
    at = np.argpartition(rk, r - 1)[r - 1]
    cut = rk[at]
    pivot = int(indices[at])
    return MedianSplit(
        dim=dim,
        pivot_index=pivot,
        threshold=float(dataset.xs[pivot, dim]),
        low=DataView._trusted(dataset, indices[rk < cut]),
        high=DataView._trusted(dataset, indices[rk > cut]),
    )


@dataclass(frozen=True)
class LevelSplit:
    """One full 2^d-ary level: 2^d children plus the cut cascade.

    ``cuts`` has 2^d - 1 entries in heap order (dimension 0 cut first, then
    the two dimension 1 cuts of its halves, and so on). An entry is None
    where the cascade hit an empty view: the empty view splits structurally
    into two empty children and no pivot is consumed.
    """

    children: tuple[DataView, ...]
    cuts: tuple[MedianSplit | None, ...]

    @property
    def eaten(self) -> tuple[int, ...]:
        return tuple(c.pivot_index for c in self.cuts if c is not None)

    def split_records(self) -> tuple[tuple[int, float], ...]:
        """(dim, threshold) per cut; requires every cut to be real."""
        if any(c is None for c in self.cuts):
            raise ValueError("level has structural empty cuts, no full cut record")
        return tuple((c.dim, c.threshold) for c in self.cuts)  # type: ignore[union-attr]


def full_level_split(view: DataView) -> LevelSplit:
    """Median-cut the view once in every dimension, in dimension order."""
    frontier = [view]
    cuts: list[MedianSplit | None] = []
    for dim in range(view.dataset.d):
        nxt: list[DataView] = []
        for v in frontier:
            if v.n == 0:
                cuts.append(None)
                nxt.extend((v, v))
            else:
                cut = median_split(v, dim)
                cuts.append(cut)
                nxt.extend((cut.low, cut.high))
        frontier = nxt
    return LevelSplit(children=tuple(frontier), cuts=tuple(cuts))


def full_tree_leaves(view: DataView, k: int) -> tuple[list[DataView], int]:
    """Leaf views of k stacked full levels, in canonical order, plus eaten count.

    Light-weight variant of build_full_tree for callers that only need the
    2^{dk} leaf populations.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    views = [view]
    eaten = 0
    for _ in range(k):
        nxt: list[DataView] = []
        for v in views:
            level = full_level_split(v)
            eaten += len(level.eaten)
            nxt.extend(level.children)
        views = nxt
    return views, eaten


@dataclass(frozen=True)
class FullTree:
    """k full levels grown from one root view.

    ``leaves`` always has exactly 2^{dk} entries in canonical order; empty
    views split structurally so the shape never degenerates. ``levels``
    stores the LevelSplit cascade of every expanded cell, level by level,
    which is enough to route query points geometrically as long as the tree
    is ``complete`` (no structural empty cuts).
    """

    root: DataView
    k: int
    d: int
    leaves: tuple[DataView, ...]
    leaf_counts: tuple[tuple[int, int], ...]
    eaten: tuple[int, ...]
    levels: tuple[tuple[LevelSplit, ...], ...]
    complete: bool


def build_full_tree(view: DataView, k: int) -> FullTree:
    if k < 0:
        raise ValueError("k must be >= 0")
    d = view.dataset.d
    views = [view]
    eaten: list[int] = []
    levels: list[tuple[LevelSplit, ...]] = []
    complete = True
    for _ in range(k):
        splits = tuple(full_level_split(v) for v in views)
        levels.append(splits)
        nxt: list[DataView] = []
        for level in splits:
            if any(c is None for c in level.cuts):
                complete = False
            eaten.extend(level.eaten)
            nxt.extend(level.children)
        views = nxt
    return FullTree(
        root=view,
        k=k,
        d=d,
        leaves=tuple(views),
        leaf_counts=tuple(v.label_counts() for v in views),
        eaten=tuple(eaten),
        levels=tuple(levels),
        complete=complete,
    )


def locate_leaf(tree: FullTree, x) -> int:
    """Index of the leaf cell containing x. Requires a complete tree."""
    if not tree.complete:
        raise ValueError("tree has structural empty cuts, cells are not routable")
    x = np.asarray(x, dtype=np.float64)
    pos = 0
    for level in tree.levels:
        cascade = level[pos]
        prefix = 0
        for lvl in range(tree.d):
            cut = cascade.cuts[(1 << lvl) - 1 + prefix]
            assert cut is not None
            side = 0 if x[cut.dim] < cut.threshold else 1
            prefix = (prefix << 1) | side
        pos = (pos << tree.d) | prefix
    return pos


def leaf_bounds(n: int, k: int, d: int) -> tuple[int, int]:
    """Sandwich on the leaf populations of k full levels over n points.

    Each cut loses one pivot and otherwise halves the cell, so cell size
    after i cuts sits between n / 2^i - 2 and n / 2^i. k = 0 is exact.
    """
    if n < 0 or k < 0 or d < 1:
        raise ValueError("need n >= 0, k >= 0, d >= 1")
    if k == 0:
        return n, n
    cells = 1 << (d * k)
    return max(math.ceil(n / cells) - 2, 0), n // cells
