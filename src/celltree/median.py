"""Pivot-eating median splits and full 2^d-ary levels, made by one kernel.

A median split at cell size n picks the r-th smallest point in the strict
(value, index) order, r = floor((n + 1) / 2), as the pivot. The pivot is
consumed: it belongs to neither child. Both children are then strictly
smaller than the parent, which is what guarantees termination no matter how
degenerate the coordinates are.

Every cut is made by ``_cut_rows`` over the rows of a padded matrix of point
ids, one row per cell, or by ``_cut_positions`` where the ids are the ranks.
Each call cuts in one dimension: the randomized builder cuts a generation
with one call per dimension its cells drew, and ``_level`` grows a full
level under every row with one call per dimension, its cuts in heap order;
``full_level_split``, ``build_full_tree`` and the lookahead probe use it.
``median_split``, a one-row call that no build makes, is the per-cell
reference. An empty row, a cell that a full level ran out of points for,
reports pivot -1 and no cut record, and splits into two empty children.

The kernel never sorts a cell. It compares the dataset's presorted ranks
(int32 below 2^31 points, 4 * d * n bytes), which encode the strict order
of the whole dataset and therefore of every subset of it: a cell's own
ranks order its points exactly as sorting them would. A linear
``np.partition`` on the narrow ranks selects each row's median rank by
value; since ranks are distinct, the one entry equal to it locates the
pivot, and selecting each row's ascending ids by rank keeps each child
ascending without a sort (SLIQ-style presorting; Mehta, Agrawal & Rissanen
1996). ``ndarray.compress`` selects them: boolean indexing returns the same
array and is 3.5-4x slower (numpy 2.4) on a mask as unpredictable as a
median cut's.

The kernel reads whichever rank table and labels it is handed, in the order
its ids number points in (``_cut_order``). An untraced build cuts in the
dataset's storage order, the points sorted by dimension-0 rank
(``Dataset._storage``): a cell's points then sit at nearby ids, so the rank
gathers read memory nearly in order, and each generation maps its pivots
back to dataset indices through the order. Storage ids are dimension 0's
ranks, so both kernels' dimension-0 cuts are ``_cut_positions``, which
takes a row's r-th id as its pivot without reading a rank, and only their
other dimensions' cuts read the table. Traced builds, whose records name
dataset indices, and the per-cell reference cut in dataset order
(``Dataset._rank_table``), every dimension through ``_cut_rows``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Dataset, DataView, Leaf, PartitionTree, _CutTable, _index_dtype, _integer
# strict_rank is the public statement of the order the kernel's ranks encode;
# it stays importable here, where perfbench/layers.py looks it up
from .core import strict_rank  # noqa: F401


def _cut_rows(cells: np.ndarray, kept: np.ndarray, dim: int, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Median-cut every row of ``cells``, row i holding ``kept[i]`` point
    ids ascending before its filler, in dimension ``dim``. Returns the
    pivots, -1 for an empty row, and the next matrix: each row's low child,
    then its high child.
    ``table[dim]`` holds dimension dim's ranks in the order the ids number
    points in: ``table`` is ``Dataset._rank_table`` for dataset indices, or
    the storage table of ``Dataset._storage`` for storage ids.

    Filler slots get negative ranks, distinct by column, or n, so many of
    each that every row's median, its r-th smallest rank, r = (kept[i] + 1)
    // 2, lands in the common column R - 1, R = (W + 1) // 2 for width W (in
    an empty row, a filler rank). One ``np.partition`` along the rows then
    selects every median, each row's first slot equal to it holds the pivot,
    and the R - 1 and W - R slots below and above it are the low and high
    children, real ids ascending in front of their filler.
    """
    rows, width = cells.shape
    if not width:  # only empty rows
        return np.full(rows, -1, dtype=cells.dtype), np.empty((2 * rows, 0), dtype=cells.dtype)
    n, rank = table.shape[1], (width + 1) // 2
    rk = table[dim].take(cells)
    least = int(kept.min())
    if least < width:  # row i's filler: rank c - W in column c up to column R + kept[i] // 2, then n
        cols = np.arange(least, width)
        np.copyto(rk[:, least:], np.where(cols < (rank + kept // 2)[:, None], cols - width, n),
                  where=cols >= kept[:, None])
    med = np.partition(rk, rank - 1, axis=1)[:, rank - 1:rank].copy()  # frees the partitioned copy
    ids = cells.reshape(-1)
    pivots = ids.take(np.arange(0, rows * width, width) + (rk == med).argmax(axis=1))
    if not least:
        pivots[kept == 0] = -1
    nxt = np.empty((rows, 2, width - rank), dtype=cells.dtype)
    nxt[:, 0, :rank - 1] = ids.compress((rk < med).reshape(-1)).reshape(rows, rank - 1)
    nxt[:, 0, rank - 1:] = 0  # a filler slot where the width is even
    nxt[:, 1] = ids.compress((rk > med).reshape(-1)).reshape(rows, width - rank)
    return pivots, nxt.reshape(2 * rows, width - rank)


def _cut_positions(cells: np.ndarray, kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_cut_rows`` where the ids are the cut dimension's ranks, as storage
    ids are dimension 0's: each row, ascending, is already in order, so its
    r-th slot holds the pivot and the slots before and after it are the
    children. Nothing is gathered, compared or selected."""
    rows, width = cells.shape
    if not width:  # only empty rows
        return np.full(rows, -1, dtype=cells.dtype), np.empty((2 * rows, 0), dtype=cells.dtype)
    rank, r = (width + 1) // 2, (kept + 1) // 2
    pivots = np.take_along_axis(cells, np.maximum(r - 1, 0)[:, None], axis=1)[:, 0]
    pivots[kept == 0] = -1
    nxt = np.empty((rows, 2, width - rank), dtype=cells.dtype)
    nxt[:, 0, :rank - 1] = cells[:, :rank - 1]  # a short low child's filler: the ids after it
    nxt[:, 0, rank - 1:] = 0  # a filler slot where the width is even
    nxt[:, 1] = cells[:, rank:] if (r == rank).all() else np.take_along_axis(
        cells, r[:, None] + np.arange(width - rank), axis=1)
    return pivots, nxt.reshape(2 * rows, width - rank)


def _row_ones(cells: np.ndarray, sizes: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Each row's count of label 1 over its ``sizes[i]`` real slots."""
    ones = ys.take(cells)
    if sizes.min() < cells.shape[1]:
        ones &= np.arange(cells.shape[1]) < sizes[:, None]
    return ones.sum(axis=1, dtype=cells.dtype)


def _rows(view: DataView) -> tuple[np.ndarray, np.ndarray]:
    """The view as a one-row id matrix and its size."""
    return view.indices.astype(_index_dtype(view.dataset.n))[None], np.array([view.n])


def _cut_order(dataset: Dataset, traced: bool) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """The order a build's ids number points in, its rank table and its
    labels. A traced build cuts in dataset order (order None), which its
    records name; an untraced one in the dataset's storage order, where a
    cell's points sit at nearby ids, and maps its pivots back through the
    order."""
    return (None, dataset._rank_table, dataset.ys) if traced else dataset._storage


def _views(cells: np.ndarray, sizes: np.ndarray, dataset: Dataset) -> list[DataView]:
    """One view per row, over an owned int64 copy of its real ids."""
    return [DataView._trusted(dataset, row[:m].astype(np.int64)) for row, m in zip(cells, sizes.tolist())]


def _heap_dims(d: int) -> np.ndarray:
    """The dimension of each of a level's 2^d - 1 cuts in heap order: one
    cut in dimension 0, then 2^j in dimension j."""
    return np.repeat(np.arange(d), [1 << j for j in range(d)])


def _level(cells: np.ndarray, sizes: np.ndarray, table: np.ndarray,
           by_position: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One full level under every row: all rows cut in dimension 0, all
    their halves in dimension 1, and so on, each cut reading ``table`` as
    ``_cut_rows`` does. With ``by_position`` the ids are dimension 0's
    ranks, as storage ids are, and ``_cut_positions`` makes the dimension-0
    cuts. Returns each row's 2^d - 1 pivots in heap order (``_heap_dims``),
    -1 for an empty row's cut, then the 2^d children of every row in
    canonical order and their sizes."""
    pivots = []
    for dim in range(len(table)):
        if by_position and not dim:
            cut, cells = _cut_positions(cells, sizes)
        else:
            cut, cells = _cut_rows(cells, sizes, dim, table)
        pivots.append(cut.reshape(-1, 1 << dim))  # row i's 2^dim cuts
        sizes = (np.maximum(sizes[:, None] - (1, 0), 0) // 2).reshape(-1)
    return np.concatenate(pivots, axis=1), cells, sizes


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
    dataset, dim = view.dataset, _integer(dim, "dimension")
    if not 0 <= dim < dataset.d:
        raise ValueError(f"dimension {dim} out of range for d={dataset.d}")
    pivots, children = _cut_rows(view.indices[None], np.array([n]), dim, dataset._rank_table)
    pivot = int(pivots[0])
    low, high = _views(children, np.array([(n - 1) // 2, n // 2]), dataset)
    return MedianSplit(dim, pivot, float(dataset.xs[pivot, dim]), low, high)


@dataclass(frozen=True)
class LevelSplit:
    """One full 2^d-ary level: 2^d children plus the records of its cuts.

    ``cuts`` has 2^d - 1 (dim, threshold) entries in heap order (dimension 0
    cut first, then the two dimension 1 cuts of its halves, and so on). An
    entry is None where the level cut an empty cell: it splits structurally
    into two empty children and no pivot is consumed. ``eaten`` lists the
    consumed pivots in the same order.
    """

    children: tuple[DataView, ...]
    cuts: tuple[tuple[int, float] | None, ...]
    eaten: tuple[int, ...]

    def split_records(self) -> tuple[tuple[int, float], ...]:
        """(dim, threshold) per cut; requires every cut to be real."""
        if None in self.cuts:
            raise ValueError("level has structural empty cuts, no full cut record")
        return self.cuts  # type: ignore[return-value]


def _splits(pivots: np.ndarray, cells: np.ndarray, sizes: np.ndarray, dataset: Dataset) -> tuple[LevelSplit, ...]:
    """The LevelSplit of every row, from what ``_level`` returned for them."""
    xs, arity, dims = dataset.xs, 1 << dataset.d, _heap_dims(dataset.d).tolist()
    children = _views(cells, sizes, dataset)
    return tuple(LevelSplit(tuple(children[i * arity:(i + 1) * arity]),
                            tuple((dim, float(xs[p, dim])) if p >= 0 else None for dim, p in zip(dims, row)),
                            tuple(p for p in row if p >= 0))
                 for i, row in enumerate(pivots.tolist()))


def full_level_split(view: DataView) -> LevelSplit:
    """Median-cut the view once in every dimension, in dimension order."""
    return _splits(*_level(*_rows(view), view.dataset._rank_table), view.dataset)[0]


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
    """k full levels under the view, each one ``_level`` call over the
    previous level's rows."""
    if _integer(k, "k") < 0:
        raise ValueError("k must be >= 0")
    dataset, levels = view.dataset, []
    cells, sizes = _rows(view)
    for _ in range(k):
        pivots, cells, sizes = _level(cells, sizes, dataset._rank_table)
        levels.append(_splits(pivots, cells, sizes, dataset))
    leaves = [child for level in levels[-1] for child in level.children] if k else [view]
    cells = [level for splits in levels for level in splits]
    return FullTree(k=k, d=dataset.d, leaves=tuple(leaves),
                    leaf_counts=tuple(v.label_counts() for v in leaves),
                    eaten=tuple(p for level in cells for p in level.eaten), levels=tuple(levels),
                    complete=all(None not in level.cuts for level in cells))


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
    n, k, d = _integer(n, "n"), _integer(k, "k"), _integer(d, "d")
    if n < 0 or k < 0 or d < 1:
        raise ValueError("need n >= 0, k >= 0, d >= 1")
    if k == 0:
        return n, n
    cells = 1 << (d * k)
    return max(math.ceil(n / cells) - 2, 0), n // cells
