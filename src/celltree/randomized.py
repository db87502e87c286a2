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

from .core import Dataset, Leaf, PartitionTree, _index_dtype, classify, majority_label
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

    ``points`` holds the live points grouped by cell in frontier order.
    Each generation sorts the splitting cells' points by (cell, rank in the
    cell's cut dimension), so a cell's median is the point at its start +
    (m - 1) // 2, and removing the pivots leaves each cell's low child and
    then its high child as contiguous runs, in frontier order. Draws and
    stop rule are ``randomized_decision``'s, so every record is the one it
    would give cell by cell. Clears ``frontier`` once its points are copied.
    """
    dataset = frontier[0].view.dataset
    n, d, xs, ys, ranks = dataset.n, dataset.d, dataset.xs, dataset.ys, dataset._rank_table
    sizes = np.array([task.view.n for task in frontier], dtype=np.int64)
    seeds = np.array([task.seed & _MASK64 for task in frontier], dtype=np.uint64)
    points = np.concatenate(
        [task.view.indices for task in frontier],
        dtype=_index_dtype(n),
        casting="same_kind",
    )
    frontier.clear()
    generations: list[list] = []
    while sizes.size:
        u, dims = _cell_draws(seeds, d)
        # phi on math, once per size: numpy's log can differ in the last bit
        distinct, which = np.unique(sizes, return_inverse=True)
        stop = u <= np.array([phi(m, beta) for m in distinct.tolist()])[which]
        ones = np.concatenate(([0], np.cumsum(ys[points], dtype=np.int64)))
        ends = np.cumsum(sizes)
        ones = ones[ends] - ones[ends - sizes]
        split = np.flatnonzero(~stop)
        cut, kept = dims[split], sizes[split]
        # boolean indexing, not compress: on a mask of long runs it is faster
        # (0.65 against 1.50 ms for 600k points in runs of 300, numpy 2.4)
        points = points[np.repeat(~stop, sizes)]
        # distinct keys, since ranks[j] is a permutation of 0..n-1
        key = np.repeat(np.arange(split.size, dtype=np.int64) * n, kept)
        key += ranks[np.repeat(cut, kept), points]
        points = points[np.argsort(key)]
        del key
        low = (kept - 1) // 2
        pivot_at = np.cumsum(kept) - kept + low
        pivots = points[pivot_at]
        records = iter([
            (((dim, thr),), (pivot,), 2)
            for dim, thr, pivot in zip(cut.tolist(), xs[pivots, cut].tolist(), pivots.tolist())
        ])
        generations.append([
            Leaf(m - c1, c1) if stopped else next(records)
            for stopped, m, c1 in zip(stop.tolist(), sizes.tolist(), ones.tolist())
        ])
        # np.delete, not a keep-mask and compress: 0.60 against 1.42 ms at that size
        points = np.delete(points, pivot_at)
        sizes = np.column_stack((low, kept - 1 - low)).ravel()
        parents = seeds[split]
        seeds = np.column_stack((_child_seeds(parents, 0), _child_seeds(parents, 1))).ravel()
    return generations


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
