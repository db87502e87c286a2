"""Tree classifier with a randomized cell-local stop rule.

Each cell flips its own biased coin: it stops and becomes a leaf with
probability phi(n) = 1 / (ln n)^beta (probability 1 below three points),
otherwise it median-splits in a uniformly random dimension. Both draws come
from the cell's derived stream, so a cell's subtree is a pure function of
its view and its seed.

Large cells are decided one by one by ``randomized_decision``. Once the
cells of a frontier are small, per-cell Python cost outweighs the numpy work,
so an untraced build decides the rest of the tree a whole generation at a
time (``_segmented_generations``), with the same draws and the same records.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Leaf, PartitionTree, classify, majority_label
from .median import median_split
from .runtime import (
    _GOLDEN,
    _MASK64,
    BuildTrace,
    CellRng,
    CellTask,
    DecisionFn,
    SplitDecision,
    derive_child_seed,
    run_cells,
)


@dataclass(frozen=True)
class RandomizedConfig:
    """beta in (0, 1) shapes the stop probability; seed drives all draws."""

    beta: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")


def phi(n: int, beta: float) -> float:
    """Stop probability of a cell holding n points.

    1 for n < 3, then 1 / (ln n)^beta. Natural logarithm throughout; note
    ln 3 > 1, so phi stays in (0, 1] and decreases in n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < 3:
        return 1.0
    return 1.0 / math.log(n) ** beta


def decide_stop(n: int, u: float, beta: float) -> bool:
    """Stop iff the cell's uniform draw u falls at or below phi(n)."""
    return u <= phi(n, beta)


def choose_dimension(d: int, rng: CellRng) -> int:
    """Uniform split dimension in [0, d) from the cell's stream."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return rng.randint(d)


def randomized_decision(beta: float) -> DecisionFn:
    """Cell decision closure: (view, seed) -> leaf or single median cut.

    Draw order is fixed: the stop uniform first, the dimension draw only if
    the cell splits. Cells with at most one point always stop (phi is 1
    there anyway, and a split needs a pivot plus at least one child point).
    """

    def decide(view, seed: int):
        rng = CellRng(seed)
        u = rng.uniform()
        n = view.n
        if n <= 1 or decide_stop(n, u, beta):
            return Leaf(*view.label_counts())
        dim = choose_dimension(view.dataset.d, rng)
        cut = median_split(view, dim)
        return SplitDecision(
            splits=((cut.dim, cut.threshold),),
            eaten=(cut.pivot_index,),
            children=(cut.low, cut.high),
        )

    return decide


# a frontier whose cells average at most this many points goes to the
# segmented kernel; above it the per-cell path is faster
_SEGMENTED_MEAN_POINTS = 512
# cells ordered per sort when the kernel takes over
_ORDER_BATCH = 128


def _splitmix64s(x: np.ndarray) -> np.ndarray:
    """``splitmix64`` over a uint64 array; numpy's uint64 arithmetic wraps
    exactly as the scalar version's 64-bit mask does."""
    x = x + np.uint64(_GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _cell_draws(seeds: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Per uint64 seed, ``randomized_decision``'s two draws from
    ``CellRng(seed)``: ``uniform()``, then ``randint(d)`` (as int64)."""
    first = _splitmix64s(seeds)
    second = _splitmix64s(seeds + np.uint64(_GOLDEN))
    u = (first >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
    # the high word of second * d, from its 32-bit halves: exact for d < 2^32
    k, half = np.uint64(d), np.uint64(32)
    high, low = second >> half, second & np.uint64(0xFFFFFFFF)
    return u, ((high * k + ((low * k) >> half)) >> half).astype(np.int64)


def _child_seeds(seeds: np.ndarray, j: int) -> np.ndarray:
    """``derive_child_seed(seed, j)`` over a uint64 array of seeds."""
    return _splitmix64s(_splitmix64s(seeds) ^ np.uint64(j + _GOLDEN))


def _segmented_generations(frontier: list[CellTask], beta: float) -> list[list]:
    """Decide ``frontier`` and every generation under it, each in a few
    numpy passes, and return ``run_cells``' records of them: per cell in
    frontier order a ``Leaf``, or ``(((dim, threshold),), (pivot,), 2)``.

    Row j of ``order`` holds the live points grouped by cell in frontier
    order and ascending in ``ranks[j]`` within each cell: the attribute
    lists of SLIQ and SPRINT. A cell's median in dimension j is then the
    point at its start + r - 1, and the points before it form the low
    child. Each row is stably partitioned into the children, which keeps
    it so without a sort. Draws and stop rule are ``randomized_decision``'s,
    so every record is the one it would give cell by cell.
    """
    dataset = frontier[0].view.dataset
    d, xs, ys = dataset.d, dataset.xs, dataset.ys
    sizes = np.array([task.view.n for task in frontier], dtype=np.int64)
    seeds = np.array([task.seed & _MASK64 for task in frontier], dtype=np.uint64)
    order = _cell_ordered_rows(frontier)
    index = order.dtype
    # each live point's side of its cell's cut, rewritten every generation
    side = np.zeros(dataset.n, dtype=np.int8)
    generations: list[list] = []
    while sizes.size:
        ends = np.cumsum(sizes)
        starts = ends - sizes
        u, dims = _cell_draws(seeds, d)
        # phi on math, once per size: numpy's log can differ in the last bit
        distinct, which = np.unique(sizes, return_inverse=True)
        stop = u <= np.array([phi(m, beta) for m in distinct.tolist()])[which]
        ones = np.concatenate(([0], np.cumsum(ys[order[0]], dtype=index)))
        ones = ones[ends] - ones[starts]
        split = np.flatnonzero(~stop)
        cut = dims[split]
        low = (sizes[split] - 1) // 2
        high = sizes[split] - 1 - low
        pivot_at = starts[split] + low
        pivots = order[cut, pivot_at]
        records = iter([
            (((dim, thr),), (pivot,), 2)
            for dim, thr, pivot in zip(cut.tolist(), xs[pivots, cut].tolist(), pivots.tolist())
        ])
        generations.append([
            Leaf(m - c1, c1) if stopped else next(records)
            for stopped, m, c1 in zip(stop.tolist(), sizes.tolist(), ones.tolist())
        ])
        if not split.size:
            break
        cells = sizes.size
        cell_of = np.repeat(np.arange(cells, dtype=index), sizes)
        _mark_sides(side, order, cell_of, cells, split, pivot_at, cut)
        # Children keep their parents' order, low child first: cell c's low
        # child starts after the lows and highs of the cells before c, its
        # high child after c's lows too. So a row's k-th low element (k
        # counted from 1 over the whole row) goes to the highs before c plus
        # k - 1, and its k-th high to the lows up to and including c plus k - 1.
        lows = np.zeros(cells, dtype=index)
        lows[split] = low
        highs = np.zeros(cells, dtype=index)
        highs[split] = high
        low_base = np.cumsum(highs, dtype=index) - highs - 1
        high_base = np.cumsum(lows, dtype=index) - 1
        order = _partition_rows(
            order, side, cell_of, low_base, high_base, int(lows.sum() + highs.sum())
        )
        del cell_of
        sizes = np.column_stack((low, high)).ravel()
        parents = seeds[split]
        seeds = np.column_stack((_child_seeds(parents, 0), _child_seeds(parents, 1))).ravel()
    return generations


def _cell_ordered_rows(frontier: list[CellTask]) -> np.ndarray:
    """(d, live points) array: row j lists the frontier's points cell by
    cell, each cell's points ascending in ``ranks[j]``. int32 when the
    dataset's indices fit. Sorts _ORDER_BATCH cells at a time, which keeps
    the int64 sort keys small."""
    dataset = frontier[0].view.dataset
    n, ranks = dataset.n, dataset.ranks
    rows = np.empty(
        (dataset.d, sum(task.view.n for task in frontier)),
        dtype=np.int32 if n < 2**31 else np.int64,
    )
    at = 0
    for first in range(0, len(frontier), _ORDER_BATCH):
        batch = frontier[first : first + _ORDER_BATCH]
        points = np.concatenate([task.view.indices for task in batch])
        sizes = [task.view.n for task in batch]
        # each cell's keys lie above the previous cell's; within a cell they follow rank
        base = np.repeat(np.arange(len(batch), dtype=np.int64) * n, sizes)
        for j in range(dataset.d):
            key = ranks[j][points]
            key += base
            rows[j, at : at + points.size] = points[np.argsort(key)]
        at += points.size
    return rows


def _mark_sides(side, order, cell_of, cells: int, split, pivot_at, cut) -> None:
    """Write each live point's side of its cell's cut into ``side``: 1 below
    the pivot, 2 above it, 0 for the pivot and for a stopping cell's points.
    A cell's points are read in its cut's row of ``order``, row 0 if it stops."""
    at = np.full(cells, -1, dtype=order.dtype)
    at[split] = pivot_at
    row_of = np.zeros(cells, dtype=order.dtype)
    row_of[split] = cut
    element = np.arange(order.shape[1], dtype=order.dtype)
    element_at = at[cell_of]
    element_side = np.where(element < element_at, np.int8(1), np.int8(2))
    element_side[(element == element_at) | (element_at < 0)] = 0
    del element, element_at
    element_row = row_of[cell_of]
    for j, row in enumerate(order):
        mine = element_row == j
        side[row[mine]] = element_side[mine]


def _partition_rows(order, side, cell_of, low_base, high_base, size: int) -> np.ndarray:
    """Stably partition every row of ``order`` into the children by
    ``side``: an element goes to its cell's base for its side plus the number
    of elements of that side up to and including it in its row. The dropped
    ones all go to one spare last column, which is cut off."""
    children = np.empty((order.shape[0], size + 1), dtype=order.dtype)
    for j, row in enumerate(order):
        s = side[row]
        at = np.cumsum(s == 1, dtype=order.dtype)
        at += low_base[cell_of]
        is_high = s == 2
        high_at = np.cumsum(is_high, dtype=order.dtype)
        high_at += high_base[cell_of]
        np.copyto(at, high_at, where=is_high)
        del high_at, is_high
        at[s == 0] = size
        children[j, at] = row
    return children[:, :size]


def build_randomized(
    data: Dataset,
    config: RandomizedConfig,
    workers: int = 1,
    trace: BuildTrace | None = None,
) -> PartitionTree:
    root = CellTask(view=data.full_view(), seed=config.seed)

    def handover(frontier: list[CellTask]) -> list[list] | None:
        if sum(task.view.n for task in frontier) > _SEGMENTED_MEAN_POINTS * len(frontier):
            return None
        return _segmented_generations(frontier, config.beta)

    node = run_cells(
        root, randomized_decision(config.beta), workers=workers, trace=trace, _handover=handover
    )
    return PartitionTree(
        root=node,
        d=data.d,
        mode="binary",
        config={
            "algo": "randomized",
            "beta": config.beta,
            "seed": config.seed,
            "n": data.n,
        },
    )


def build_ensemble(
    data: Dataset,
    config: RandomizedConfig,
    t: int,
    workers: int = 1,
) -> list[PartitionTree]:
    """t independent trees; member i runs on seed derived from (seed, i)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    trees = []
    for i in range(t):
        member = RandomizedConfig(beta=config.beta, seed=derive_child_seed(config.seed, i))
        trees.append(build_randomized(data, member, workers=workers))
    return trees


def ensemble_classify(trees: list[PartitionTree], x) -> int:
    """Majority vote over member predictions, ties to class 0."""
    if not trees:
        raise ValueError("ensemble must have at least one tree")
    votes = sum(classify(tree, x) for tree in trees)
    return majority_label(len(trees) - votes, votes)
