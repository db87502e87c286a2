"""Tree classifier with a randomized cell-local stop rule.

Each cell flips its own biased coin: it stops and becomes a leaf with
probability phi(n) = 1 / (ln n)^beta (probability 1 below three points),
otherwise it median-splits in a uniformly random dimension. Both draws come
from the cell's derived stream, so a cell's subtree is a pure function of
its view and its seed.

``randomized_decision`` decides one cell. Run by ``run_cells``, it and
``median_split``, a one-row call of the median kernel, are the per-cell
reference that the tests and ``audit_autonomy``'s replays run. A build,
traced or not, decides the whole tree from the root a generation at a time
instead (``_generations``, shaped as ``lookahead._generations``), with the
same draws, records and trace: a generation's cells are the rows of one
padded matrix of point ids, cut a dimension at a time (``_cut``), each
dimension's rows with one kernel call. No cell is sorted, and the matrix
holds about n + cells ids.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Leaf, PartitionTree, _Generation, _integer, _real, classify, majority_label
from .median import _cut_order, _cut_positions, _cut_rows, _row_ones, _rows, median_split
from .runtime import (
    _GOLDEN,
    _MASK64,
    BuildTrace,
    CellRng,
    DecisionFn,
    SplitDecision,
    _child_seeds,
    _root_frontier,
    _splitmix64s,
    _trace_generation,
    derive_child_seed,
    # run_cells stays importable here, where perfbench/layers.py rebinds it
    run_cells,  # noqa: F401
)


@dataclass(frozen=True)
class RandomizedConfig:
    """beta in (0, 1) shapes the stop probability; seed drives all draws.

    beta is kept as a Python float and the seed as a Python int: a numpy
    number is converted, and a bool or a value of the wrong kind raises
    ValueError."""

    beta: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "beta", _real(self.beta, "beta"))
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))


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
    d = _integer(d, "d")
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


# CellRng's state at its first and second draw, less the seed
_DRAWS = np.array([0, _GOLDEN], dtype=np.uint64)


def _draws(words: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``randomized_decision``'s two draws from ``CellRng(seed)``'s first two
    ``next_u64()`` words, (seeds, 2): ``uniform()``, then ``randint(d)`` (as
    int64)."""
    u = (words[:, 0] >> 11).astype(np.float64) * (1.0 / (1 << 53))
    # the high word of second * d, from its 32-bit halves: exact for d < 2^32
    second, k = words[:, 1], np.uint64(d)
    high, low = second >> 32, second & np.uint64(0xFFFFFFFF)
    return u, ((high * k + ((low * k) >> 32)) >> 32).astype(np.int64)


def _cut_in(cells: np.ndarray, kept: np.ndarray, dim: int, table: np.ndarray,
            by_position: bool) -> tuple[np.ndarray, np.ndarray]:
    """``median._level``'s rule: cut by position in dimension 0 where the ids
    are its ranks (``by_position``, as storage ids are), by rank otherwise."""
    return _cut_positions(cells, kept) if by_position and not dim else _cut_rows(cells, kept, dim, table)


def _cut(cells: np.ndarray, sizes: np.ndarray, split: np.ndarray, dims: np.ndarray, table: np.ndarray,
         by_position: bool) -> tuple[np.ndarray, np.ndarray]:
    """Median-cut the rows that ``split`` marks, row i in dimension
    ``dims[i]``, with one ``_cut_in`` call per dimension drawn. Returns the
    cut rows' pivots and their next matrix, each row's low child, then its
    high child, in row order."""
    kept, cut = sizes[split], dims[split]
    if kept.size < sizes.size:  # the widest splitting cell sets the width
        cells = cells[:, :kept.max()]
    drawn = np.flatnonzero(np.bincount(cut, minlength=len(table))).tolist()
    if len(drawn) == 1:  # one call over the cut rows, in order: nothing to write back
        return _cut_in(cells if kept.size == sizes.size else cells.compress(split, axis=0), kept, drawn[0],
                       table, by_position)
    pivots = np.empty(kept.size, dtype=cells.dtype)
    nxt = np.empty((kept.size, 2, cells.shape[1] // 2), dtype=cells.dtype)
    for dim in drawn:
        group = cut == dim
        pivots[group], children = _cut_in(cells.compress(split & (dims == dim), axis=0), kept[group], dim,
                                          table, by_position)
        nxt[group] = children.reshape(-1, 2, nxt.shape[2])
    return pivots, nxt.reshape(2 * kept.size, -1)


def _generations(data: Dataset, config: RandomizedConfig, trace: BuildTrace | None) -> list[_Generation]:
    """Decide the tree from the root a generation at a time, each in a few
    numpy passes, and return its records as ``core._Generation`` columns,
    one per generation.

    A generation's live cells are the rows of one integer matrix in frontier
    order, each row its cell's point ids ascending before filler slots, told
    apart by column, not by id. The matrix is as wide as the widest splitting
    cell, and a generation's cell sizes differ by at most one, so it holds
    about n + cells ids. Rows that stop leave, their label counts summed
    over real slots only; ``_cut`` cuts the rest, the rows of each drawn
    dimension with one call, and writes their children back in frontier
    order. Draws and stop rule are ``randomized_decision``'s, so every
    record and ``TraceRecord`` is the one ``run_cells`` gives cell by cell.
    Untraced, the ids are storage ids (``median._cut_order``), so the
    dimension-0 rows are cut by position, and each generation's pivots are
    mapped back to dataset indices.
    """
    d, xs = data.d, data.xs
    order, table, ys = _cut_order(data, trace is not None)
    cells, sizes = _rows(data.full_view())  # the root view's indices are freed here
    seeds = np.array([config.seed & _MASK64], dtype=np.uint64)
    frontier = _root_frontier(config.seed)
    generations: list[_Generation] = []
    while True:
        rows = cells if trace is not None else None  # the generation's rows, for its trace
        u, dims = _draws(_splitmix64s(seeds[:, None] + _DRAWS), d)
        # phi on math, once per size: numpy's log can differ in the last bit
        least = int(sizes.min())
        phis = np.array([phi(m, config.beta) for m in range(least, int(sizes.max()) + 1)])
        stop = u <= phis[sizes - least]
        split = ~stop
        stopped, kept, cut = sizes[stop], sizes[split], dims[split]
        ones = _row_ones(cells.compress(stop, axis=0), stopped, ys) if stopped.size else stopped
        pivots = np.empty(0, dtype=cells.dtype)
        if kept.size:
            pivots, cells = _cut(cells, sizes, split, dims, table, order is not None)
            if order is not None:
                pivots = order.take(pivots)
        gen = _Generation(split, stopped - ones, ones, cut, xs[pivots, cut], pivots, 2)
        generations.append(gen)
        # each split's low child, then its high child
        children = ((kept[:, None] - (1, 0)) // 2).ravel()
        if trace is not None:
            frontier = _trace_generation(trace, gen, rows, sizes, children, frontier, data)
        if not kept.size:
            return generations
        sizes, seeds = children, _child_seeds(seeds[split], 2)


def build_randomized(data: Dataset, config: RandomizedConfig, workers: int = 1,
                     trace: BuildTrace | None = None) -> PartitionTree:
    """Decide the tree from the root in ``_generations``. Builds run in one
    thread: ``workers`` is checked to be an integer >= 1, as ``run_cells``
    checks it, and changes nothing."""
    if _integer(workers, "workers") < 1:
        raise ValueError("workers must be >= 1")
    return PartitionTree._of_generations(_generations(data, config, trace), data.d, "binary", {
        "algo": "randomized", "beta": config.beta, "seed": config.seed, "n": data.n})


def build_ensemble(data: Dataset, config: RandomizedConfig, t: int, workers: int = 1) -> list[PartitionTree]:
    """t independent trees; member i runs on seed derived from (seed, i).
    ``t`` is read as seeds are: a bool or a non-integer raises ValueError."""
    t = _integer(t, "t")
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
