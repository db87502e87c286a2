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
instead (``_segmented_generations``), with the same draws, records and
trace: a generation's cells are the rows of one padded matrix of point ids,
which ``median._cut_rows`` cuts with one call, each row in its own
dimension. No cell is sorted, and the matrix holds about n + cells ids.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Leaf, PartitionTree, _Generation, _index_dtype, _integer, classify, majority_label
from .median import _cut_rows, _row_ones, median_split
from .runtime import (
    _GOLDEN,
    _MASK64,
    BuildTrace,
    CellRng,
    CellTask,
    DecisionFn,
    SplitDecision,
    _trace_generation,
    derive_child_seed,
    # run_cells stays importable here, where perfbench/layers.py rebinds it
    run_cells,  # noqa: F401
)


@dataclass(frozen=True)
class RandomizedConfig:
    """beta in (0, 1) shapes the stop probability; seed drives all draws.

    The seed is kept as a Python int: a numpy integer is converted, and a
    bool or a non-integer raises ValueError."""

    beta: float
    seed: int = 0

    def __post_init__(self):
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


# splitmix64's constants as uint64 scalars, made once
_G64 = np.uint64(_GOLDEN)
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
# CellRng's state at its first and second draw, less the seed
_DRAWS = np.array([0, _GOLDEN], dtype=np.uint64)
# what derive_child_seed mixes into splitmix64(seed) for children 0 and 1
_CHILD_SALTS = np.array([_GOLDEN, _GOLDEN + 1], dtype=np.uint64)


def _splitmix64s(x: np.ndarray) -> np.ndarray:
    """``splitmix64`` over a uint64 array; numpy's uint64 arithmetic wraps
    exactly as the scalar version's 64-bit mask does."""
    x = x + _G64
    x ^= x >> 30
    x *= _MIX1
    x ^= x >> 27
    x *= _MIX2
    x ^= x >> 31
    return x


def _draws(words: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``randomized_decision``'s two draws from ``CellRng(seed)``'s first two
    ``next_u64()`` words, (seeds, 2): ``uniform()``, then ``randint(d)`` (as
    int64)."""
    u = (words[:, 0] >> 11).astype(np.float64) * (1.0 / (1 << 53))
    # the high word of second * d, from its 32-bit halves: exact for d < 2^32
    second, k = words[:, 1], np.uint64(d)
    high, low = second >> 32, second & np.uint64(0xFFFFFFFF)
    return u, ((high * k + ((low * k) >> 32)) >> 32).astype(np.int64)


def _cell_draws(seeds: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``_draws`` per uint64 seed."""
    return _draws(_splitmix64s(seeds[:, None] + _DRAWS), d)


def _child_seeds(seeds: np.ndarray, j: int) -> np.ndarray:
    """``derive_child_seed(seed, j)`` per uint64 seed."""
    return _splitmix64s(_splitmix64s(seeds) ^ _CHILD_SALTS[j])


def _segmented_generations(
    frontier: list[CellTask], beta: float, trace: BuildTrace | None = None
) -> list[_Generation]:
    """Decide ``frontier`` and every generation under it, each in a few
    numpy passes, and return them as ``core._Generation`` columns, one per
    generation: each iterates as ``run_cells``' records, per cell in
    frontier order a ``Leaf``, or ``(((dim, threshold),), (pivot,), 2)``.

    A generation's live cells are the rows of one integer matrix, cells x
    width, in frontier order. Each row holds its cell's point ids ascending
    at its front; the slots behind them are filler, told apart by column,
    not by id. Rows that stop leave by ``compress(axis=0)``, their label
    counts summed over real slots only; ``_cut_rows`` cuts the rest. Draws
    and stop rule are ``randomized_decision``'s, so every record is the one
    it would give cell by cell. With ``trace``, each generation appends the
    ``TraceRecord``s that ``run_cells`` would, each view's indices being its
    row's real prefix.

    Memory: the matrix is as wide as the widest splitting cell. From the
    root, one generation's cell sizes differ by at most one, so the matrix
    holds about n + cells ids. A frontier handed in with uneven cells, which
    only tests do, is padded to its widest cell. Clears ``frontier`` once
    its points are copied.
    """
    dataset = frontier[0].view.dataset
    d, xs, ys = dataset.d, dataset.xs, dataset.ys
    sizes = np.array([task.view.n for task in frontier], dtype=np.int64)
    seeds = np.array([task.seed & _MASK64 for task in frontier], dtype=np.uint64)
    cells = np.zeros((sizes.size, sizes.max()), dtype=_index_dtype(dataset.n))  # filler id 0
    for row, task in zip(cells, frontier):
        row[:task.view.n] = task.view.indices
    del task  # the last task: clearing frontier below then frees every view
    if trace is not None:
        cell_ids = [task.cell_id for task in frontier]
        parent_ids = [task.parent_id for task in frontier]
        given = [task.seed for task in frontier]  # recorded as given: -1 stays -1
    frontier.clear()
    generations: list[_Generation] = []
    while True:
        rows = cells if trace is not None else None  # the generation's rows, for its trace
        # CellRng's first two words; the first, splitmix64(seed), is where
        # derive_child_seed starts too
        words = _splitmix64s(seeds[:, None] + _DRAWS)
        u, dims = _draws(words, d)
        # phi on math, once per size: numpy's log can differ in the last bit
        least = int(sizes.min())
        phis = np.array([phi(m, beta) for m in range(least, int(sizes.max()) + 1)])
        stop = u <= phis[sizes - least]
        split = ~stop
        stopped, kept, cut = sizes[stop], sizes[split], dims[split]
        ones = _row_ones(cells.compress(stop, axis=0), stopped, ys) if stopped.size else stopped
        pivots = np.empty(0, dtype=cells.dtype)
        if kept.size:
            if stopped.size:  # the widest splitting cell sets the width
                cells = cells[:, :kept.max()].compress(split, axis=0)
            pivots, cells = _cut_rows(cells, kept, cut, dataset)
        gen = _Generation(split, stopped - ones, ones, cut, xs[pivots, cut], pivots, 2)
        generations.append(gen)
        # each split's low child, then its high child
        children = ((kept[:, None] - (1, 0)) // 2).ravel()
        if trace is not None:
            cell_ids, parent_ids = _trace_generation(trace, gen, rows, sizes, children,
                                                     given or seeds.tolist(), cell_ids, parent_ids, dataset)
            given = None
        if not kept.size:
            return generations
        sizes = children
        seeds = _splitmix64s(words[split, :1] ^ _CHILD_SALTS).ravel()


def build_randomized(
    data: Dataset,
    config: RandomizedConfig,
    workers: int = 1,
    trace: BuildTrace | None = None,
) -> PartitionTree:
    """Decide the tree from the root in ``_segmented_generations``. Builds
    run in one thread: ``workers`` is checked to be an integer >= 1, as
    ``run_cells`` checks it, and changes nothing."""
    if _integer(workers, "workers") < 1:
        raise ValueError("workers must be >= 1")
    generations = _segmented_generations([CellTask(data.full_view(), config.seed)], config.beta, trace)
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
