"""Pivot-eating median splits and full 2^d-ary levels.

A median split at cell size n picks the r-th smallest point in the strict
(value, index) order, r = floor((n + 1) / 2), as the pivot. The pivot is
consumed: it belongs to neither child. Both children are then strictly
smaller than the parent, which is what guarantees termination no matter how
degenerate the coordinates are.

The kernel never sorts a cell. It compares the dataset's presorted ranks
(``Dataset._rank_table``, int32 below 2^31 points, 4 * d * n bytes), which
encode the strict order of the whole dataset and therefore of every subset of
it: a cell's own ranks order its own points exactly as sorting them would.
The kernel gathers the cell's ranks in the cut dimension and selects the r-th
smallest rank by value, with a linear ``np.partition`` on the narrow ranks
rather than an ``argpartition`` that also permutes indices; since ranks are
distinct, the one gathered entry equal to it locates the pivot. Selecting the
cell's ascending indices by rank keeps each child ascending without a sort
(SLIQ/CART-style presorting). The selection uses ``ndarray.compress``: it
returns the same array as boolean indexing, which is 3.5-4x slower
(numpy 2.4) on a mask as unpredictable as a median cut's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

# strict_rank is the public statement of the order the kernel's ranks encode;
# it stays importable here, where perfbench/layers.py looks it up
from .core import DataView, Leaf, PartitionTree, _CutTable, strict_rank  # noqa: F401


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
    rk = dataset._rank_table[dim][indices]
    r = (n + 1) // 2
    cut = np.partition(rk, r - 1)[r - 1]
    pivot = int(indices[(rk == cut).argmax()])  # ranks are distinct: one entry is cut
    return MedianSplit(
        dim=dim,
        pivot_index=pivot,
        threshold=float(dataset.xs[pivot, dim]),
        low=DataView._trusted(dataset, indices.compress(rk < cut)),
        high=DataView._trusted(dataset, indices.compress(rk > cut)),
    )


@dataclass(frozen=True)
class LevelSplit:
    """One full 2^d-ary level: 2^d children plus the records of its cuts.

    ``cuts`` has 2^d - 1 (dim, threshold) entries in heap order (dimension 0
    cut first, then the two dimension 1 cuts of its halves, and so on). An
    entry is None where the cascade hit an empty view: the empty view splits
    structurally into two empty children and no pivot is consumed. ``eaten``
    lists the consumed pivots in cascade order.
    """

    children: tuple[DataView, ...]
    cuts: tuple[tuple[int, float] | None, ...]
    eaten: tuple[int, ...]

    def split_records(self) -> tuple[tuple[int, float], ...]:
        """(dim, threshold) per cut; requires every cut to be real."""
        if None in self.cuts:
            raise ValueError("level has structural empty cuts, no full cut record")
        return self.cuts  # type: ignore[return-value]


def full_level_split(view: DataView) -> LevelSplit:
    """Median-cut the view once in every dimension, in dimension order.

    Keeps each cut's record, not its halves, so the intermediate views are
    freed as the cascade moves on to the next dimension.
    """
    frontier = [view]
    cuts: list[tuple[int, float] | None] = []
    eaten: list[int] = []
    for dim in range(view.dataset.d):
        nxt: list[DataView] = []
        for v in frontier:
            if v.n == 0:
                cuts.append(None)
                nxt.extend((v, v))
            else:
                cut = median_split(v, dim)
                cuts.append((cut.dim, cut.threshold))
                eaten.append(cut.pivot_index)
                nxt.extend((cut.low, cut.high))
        frontier = nxt
    return LevelSplit(children=tuple(frontier), cuts=tuple(cuts), eaten=tuple(eaten))


def _grow_levels(
    views: list[DataView], k: int
) -> Iterator[tuple[tuple[LevelSplit, ...], list[DataView]]]:
    """Yield (splits, children) for each of k stacked full levels grown under
    ``views``, in canonical order. The parents are dropped before each yield,
    so a caller that keeps only the newest children holds one level of views
    at a time.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    for _ in range(k):
        splits = tuple(full_level_split(v) for v in views)
        views = [c for level in splits for c in level.children]
        yield splits, views


def full_tree_leaves(view: DataView, k: int) -> tuple[list[DataView], int]:
    """Leaf views of k stacked full levels, in canonical order, plus eaten count.

    Light-weight variant of build_full_tree for callers that only need the
    2^{dk} leaf populations.
    """
    leaves, eaten = [view], 0
    for splits, leaves in _grow_levels([view], k):
        eaten += sum(len(level.eaten) for level in splits)
    return leaves, eaten


@dataclass(frozen=True)
class FullTree:
    """k full levels grown from one root view.

    ``leaves`` always has exactly 2^{dk} entries in canonical order; empty
    views split structurally so the shape never degenerates. ``levels``
    stores the LevelSplit records of every expanded cell, level by level,
    which is enough to route query points geometrically as long as the tree
    is ``complete`` (no structural empty cuts).
    """

    k: int
    d: int
    leaves: tuple[DataView, ...]
    leaf_counts: tuple[tuple[int, int], ...]
    eaten: tuple[int, ...]
    levels: tuple[tuple[LevelSplit, ...], ...]
    complete: bool

    @cached_property
    def _cuts(self) -> _CutTable:
        """The cut table of ``_partition_tree(self)``, built on first use."""
        return _partition_tree(self)._cuts


def build_full_tree(view: DataView, k: int) -> FullTree:
    levels, leaves = [], [view]
    for splits, leaves in _grow_levels([view], k):
        levels.append(splits)
    cells = [level for splits in levels for level in splits]
    return FullTree(
        k=k,
        d=view.dataset.d,
        leaves=tuple(leaves),
        leaf_counts=tuple(v.label_counts() for v in leaves),
        eaten=tuple(p for level in cells for p in level.eaten),
        levels=tuple(levels),
        complete=all(None not in level.cuts for level in cells),
    )


def _partition_tree(tree: FullTree) -> PartitionTree:
    """A complete tree as a full-mode PartitionTree, made from its levels as
    ``run_cells``' generation records, so its leaves, left to right, are in
    canonical order. An incomplete tree raises ValueError from
    ``LevelSplit.split_records``."""
    arity = 1 << tree.d
    generations: list[list] = [
        [(level.split_records(), level.eaten, arity) for level in splits] for splits in tree.levels
    ]
    generations.append([Leaf(*counts) for counts in tree.leaf_counts])
    return PartitionTree._of_generations(generations, tree.d, "full", {})


def locate_leaf(tree: FullTree, x) -> int:
    """Index of the leaf cell containing x. Requires a complete tree and d
    finite coordinates; anything else raises ValueError, as ``route`` does.
    The tree is converted to its cut table once, on the first call."""
    x = np.asarray(x, dtype=np.float64)[None]  # one row, whose shape leaf_of checks
    return int(tree._cuts.leaf_of(x)[0])


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
