"""Tree classifier with a randomized cell-local stop rule.

Each cell flips its own biased coin: it stops and becomes a leaf with
probability phi(n) = 1 / (ln n)^beta (probability 1 below three points),
otherwise it median-splits in a uniformly random dimension. Both draws come
from the cell's derived stream, so a cell's subtree is a pure function of
its view and its seed.

Large cells are decided one by one by ``randomized_decision``. Once the
cells of a frontier are small, per-cell Python cost outweighs the numpy work,
so a build, traced or not, decides the rest of the tree a whole generation at
a time (``_segmented_generations``), with the same draws, the same records
and the same trace.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    Leaf,
    PartitionTree,
    _Generation,
    _index_dtype,
    classify,
    majority_label,
)
from .median import median_split
from .runtime import (
    _GOLDEN,
    _MASK64,
    BuildTrace,
    CellRng,
    CellTask,
    DecisionFn,
    SplitDecision,
    TraceRecord,
    _byte_view,
    _input_hash,
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


def _segmented_generations(
    frontier: list[CellTask], beta: float, trace: BuildTrace | None = None
) -> list[_Generation]:
    """Decide ``frontier`` and every generation under it, each in a few
    numpy passes, and return them as ``core._Generation`` columns, one per
    generation: each iterates as ``run_cells``' records, per cell in
    frontier order a ``Leaf``, or ``(((dim, threshold),), (pivot,), 2)``.

    ``points`` holds the live points grouped by cell in frontier order.
    Each generation sorts the splitting cells' points by (cell, rank in the
    cell's cut dimension), so a cell's median is the point at its start +
    (m - 1) // 2, and removing the pivots leaves each cell's low child and
    then its high child as contiguous runs, in frontier order. Draws and
    stop rule are ``randomized_decision``'s, so every record is the one it
    would give cell by cell. With ``trace``, each generation appends the
    ``TraceRecord``s that ``run_cells`` would, after one more sort of its
    points by (cell, index). Clears ``frontier`` once its points are copied.
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
    if trace is not None:
        cell_ids = [task.cell_id for task in frontier]
        parent_ids = [task.parent_id for task in frontier]
        given = [task.seed for task in frontier]  # recorded as given: -1 stays -1
    frontier.clear()
    generations: list[_Generation] = []
    while sizes.size:
        if trace is not None:
            # each cell's points in ascending order, as its view holds them
            cell_base = np.repeat(np.arange(sizes.size, dtype=np.int64) * n, sizes)
            viewed = np.sort(cell_base + points) - cell_base
            del cell_base
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
        gen = _Generation(~stop, sizes[stop] - ones[stop], ones[stop], cut, xs[pivots, cut], pivots, 2)
        generations.append(gen)
        if trace is not None:
            _trace_generation(trace, gen, sizes, given or seeds.tolist(), cell_ids, parent_ids,
                              viewed, dataset)
            parent_ids = [cell_ids[i] for i in split.tolist() for _ in (0, 1)]
            cell_ids = [f"{parent}.{j}" for parent in parent_ids[::2] for j in (0, 1)]
            given = None
        # np.delete, not a keep-mask and compress: 0.60 against 1.42 ms at that size
        points = np.delete(points, pivot_at)
        sizes = np.column_stack((low, kept - 1 - low)).ravel()
        parents = seeds[split]
        seeds = np.column_stack((_child_seeds(parents, 0), _child_seeds(parents, 1))).ravel()
    return generations


def _trace_generation(trace: BuildTrace, gen: _Generation, sizes: np.ndarray, seeds: list,
                      ids: list, parents: list, viewed: np.ndarray, dataset: Dataset) -> None:
    """Append one generation's ``TraceRecord``s, per cell in frontier order,
    as ``run_cells`` makes them: the same fingerprint string as
    ``decision_fingerprint``, the same SHA-256 over the same bytes, the view's
    indices as a read-only int64 slice. ``viewed`` holds the cells' points,
    each cell's in ascending order."""
    viewed = viewed.astype(np.int64)
    viewed.flags.writeable = False
    xs, ys, row = _byte_view(dataset.xs[viewed]), _byte_view(dataset.ys[viewed]), 8 * dataset.d
    leaves = (f"leaf:{c0}:{c1}" for c0, c1 in zip(gen.count0.tolist(), gen.count1.tolist()))
    kept = sizes[gen.split] - 1
    cuts = (f"split:dims={dim}:thr={thr!r}:sizes={low},{high}" for dim, thr, low, high in zip(
        gen.dims.tolist(), gen.thrs.tolist(), (kept // 2).tolist(), (kept - kept // 2).tolist()))
    ends = np.cumsum(sizes).tolist()
    trace.records += [
        TraceRecord(cell_id, parent_id, b - a, seed, next(cuts) if split else next(leaves),
                    _input_hash(seed, xs[a * row:b * row], ys[a:b]), viewed[a:b])
        for split, a, b, seed, cell_id, parent_id
        in zip(gen.split.tolist(), [0] + ends[:-1], ends, seeds, ids, parents)
    ]


def build_randomized(
    data: Dataset,
    config: RandomizedConfig,
    workers: int = 1,
    trace: BuildTrace | None = None,
) -> PartitionTree:
    root = CellTask(view=data.full_view(), seed=config.seed)

    def handover(frontier: list[CellTask]) -> list[_Generation] | None:
        if sum(task.view.n for task in frontier) > _SEGMENTED_MEAN_POINTS * len(frontier):
            return None
        return _segmented_generations(frontier, config.beta, trace)

    generations = run_cells(
        root, randomized_decision(config.beta), workers=workers, trace=trace, _handover=handover,
        _records=True,
    )
    return PartitionTree._of_generations(generations, data.d, "binary", {
        "algo": "randomized",
        "beta": config.beta,
        "seed": config.seed,
        "n": data.n,
    })


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
