"""Tree classifier with a lookahead cell-local stop rule.

A cell compares the empirical misclassification of predicting its own
majority against the error it would have after k+ more full split levels,
where k+ = floor(alpha * log2(n + 1)) grows slowly with the cell size. If
the improvement does not beat (n + 1)^(-beta), splitting is not worth it and
the cell stops. Both quantities come from the cell's own points, so the rule
is deterministic and cellular.

A build decides the tree from the root a generation at a time
(``_generations``), as ``build_randomized`` does: the cells of a generation
are independent, so their probes grow together. The probe is kept per level,
cell after cell, and one ``median._level`` call grows a level under every
row. The children of a cell that splits keep their blocks of every deeper
level, which is the probe they would have grown from their own points, so
no level is grown twice. ``lookahead_decision`` decides one cell from a
probe grown from scratch and commits ``full_level_split``: it is the
per-cell reference that the tests and ``audit_autonomy``'s replays run.

Float determinism note: the error formulas below fix the evaluation order
(single division per term, leaf terms accumulated left to right in canonical
leaf order). Independent reimplementations that follow the same order, such
as the naive reference used in tests, reproduce the values bit for bit and
therefore the exact same trees.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, DataView, Leaf, PartitionTree, _Generation, _integer, _real
from .median import _cut_order, _heap_dims, _level, _row_ones, _rows, full_level_split
from .runtime import (
    BuildTrace,
    DecisionFn,
    SplitDecision,
    _root_frontier,
    _trace_generation,
    # run_cells stays importable here, where perfbench/layers.py rebinds it
    run_cells,  # noqa: F401
)


class AdmissibilityError(ValueError):
    """alpha and beta do not satisfy 1 - d*alpha - 2*beta > 0."""


@dataclass(frozen=True)
class LookaheadConfig:
    """The lookahead rule's parameters. ``alpha`` and ``beta`` are kept as
    Python floats, ``d`` and the seed as Python ints: a numpy number is
    converted. A bool or a value of the wrong kind raises ValueError, as
    AdmissibilityError for ``alpha`` and ``beta``."""

    alpha: float
    beta: float
    d: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "d", _integer(self.d, "d"))
        if self.d < 1:
            raise ValueError("d must be >= 1")
        try:
            object.__setattr__(self, "alpha", _real(self.alpha, "alpha"))
            object.__setattr__(self, "beta", _real(self.beta, "beta"))
        except ValueError as exc:
            raise AdmissibilityError(str(exc)) from None
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise AdmissibilityError(
                f"alpha and beta must be finite, got alpha={self.alpha}, beta={self.beta}"
            )
        if self.alpha <= 0 or self.beta <= 0:
            raise AdmissibilityError(
                f"alpha and beta must be positive, got alpha={self.alpha}, beta={self.beta}"
            )
        margin = 1.0 - self.d * self.alpha - 2.0 * self.beta
        if margin <= 0:
            raise AdmissibilityError(
                f"need 1 - d*alpha - 2*beta > 0, got {margin:.6g} "
                f"(alpha={self.alpha}, beta={self.beta}, d={self.d})"
            )
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))


def empirical_error(view: DataView) -> float:
    """In-cell error of the majority vote: min(count0, count1) / n, 0 if empty."""
    return _error([view.label_counts()], view.n)


def k_plus(n: int, alpha: float) -> int:
    """Lookahead horizon floor(alpha * log2(n + 1)) for a cell of n points."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0 < alpha < math.inf:  # NaN too
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    return int(math.floor(alpha * math.log2(n + 1)))


def _counts(sizes: np.ndarray, ones: np.ndarray) -> list:
    """A level's (count0, count1) per cell, from its sizes and label-1 counts."""
    return list(zip((sizes - ones).tolist(), ones.tolist()))


def _probe(view: DataView, k: int) -> list:
    """The (count0, count1) of level i's 2^{di} cells in canonical order, for
    i up to k, each level grown from scratch; level 0 is the view itself."""
    cells, sizes = _rows(view)
    counts = [[view.label_counts()]]
    for _ in range(k):
        _, cells, sizes = _level(cells, sizes, view.dataset._rank_table)
        counts.append(_counts(sizes, _row_ones(cells, sizes, view.dataset.ys)))
    return counts


def _error(counts: list, n: int) -> float:
    """Sum of (min(c0, c1) / nj) * (nj / n) over the nonempty cells, left to
    right; a cell of n points at level 0 gives its own empirical error."""
    total = 0.0
    for c0, c1 in counts:
        nj = c0 + c1
        if nj:
            total += (min(c0, c1) / nj) * (nj / n)
    return total


def _stops(cell: list, deep: list, n: int, beta: float) -> bool:
    """The stop rule on a cell's own counts and its counts k levels down."""
    gap = abs(_error(cell, n) - _error(deep, n))
    return gap <= (n + 1.0) ** (-beta)


def lookahead_error(view: DataView, k: int) -> float:
    """Error after k scratch full levels, weighted by child populations.

    Sum over the 2^{dk} leaf cells of (leaf error) * (leaf size / n). Eaten
    pivots make the weights sum to less than one. k = 0 is the cell's own
    empirical error by construction.
    """
    if _integer(k, "k") < 0:
        raise ValueError("k must be >= 0")
    if view.n == 0:
        return 0.0
    return _error(_probe(view, k)[k], view.n)


def decide_stop_lookahead(view: DataView, config: LookaheadConfig) -> bool:
    """Stop iff the k+ lookahead gain is at most (n + 1)^(-beta).

    Cells too small for a nonzero horizon have zero gain and always stop;
    in particular empty and singleton cells never split.
    """
    k = k_plus(view.n, config.alpha)
    counts = _probe(view, k)
    return _stops(counts[0], counts[k], view.n, config.beta)


def lookahead_decision(config: LookaheadConfig) -> DecisionFn:
    """The per-cell reference: a from-scratch probe, then one full level."""

    def decide(view, seed: int):
        if decide_stop_lookahead(view, config):
            return Leaf(*view.label_counts())
        level = full_level_split(view)
        return SplitDecision(level.split_records(), level.eaten, level.children)

    return decide


def _blocks(column, split: np.ndarray):
    """``column``'s entries (or rows) in the equal blocks of the cells that split."""
    if column is None or split.all():
        return column
    return column.compress(np.repeat(split, column.shape[0] // split.size), axis=0)


def _generations(data: Dataset, config: LookaheadConfig, trace: BuildTrace | None) -> list[_Generation]:
    """Decide the tree from the root a generation at a time, and return its
    records as ``core._Generation`` columns, one per generation.

    A probe level holds its cells' sizes and label-1 counts, the pivots of
    each cell of the level above, in heap order, and its rows: the deepest
    level's, or every level's with ``trace``. A cell stops by ``_stops`` on
    its own two blocks, read in canonical order, so every record and
    ``TraceRecord`` is the one ``run_cells`` gives with ``lookahead_decision``.
    Untraced, the rows hold storage ids (``median._cut_order``), whose
    dimension-0 cuts read no rank, and each generation's pivots are mapped
    back to dataset indices.
    """
    d, arity = data.d, 1 << data.d
    order, table, ys = _cut_order(data, trace is not None)
    rows, sizes = _rows(data.full_view())  # the root view's indices are freed here
    levels = [[sizes, _row_ones(rows, sizes, ys), None, rows]]
    frontier = _root_frontier(config.seed)
    generations: list[_Generation] = []
    while True:
        ns = levels[0][0].tolist()
        ks = [k_plus(n, config.alpha) for n in ns]
        while len(levels) <= max(ks):
            top = levels[-1]
            cuts, rows, sizes = _level(top[3], top[0], table)
            if trace is None:
                top[3] = None
            levels.append([sizes, _row_ones(rows, sizes, ys), cuts, rows])
        counts = {k: _counts(*levels[k][:2]) for k in {0, *ks}}
        split = np.array([not _stops(counts[0][i:i + 1], counts[k][i << d * k:(i + 1) << d * k], n,
                                     config.beta) for i, (n, k) in enumerate(zip(ns, ks))], dtype=bool)
        sizes, ones, _, rows = levels.pop(0)
        levels = [[_blocks(column, split) for column in level] for level in levels]
        eaten = levels[0][2].ravel() if levels else sizes[:0]  # a split cell has a horizon
        if order is not None:
            eaten = order.take(eaten)
        # each split's cut dimensions, made only if a cell splits, which
        # takes 2^d points or more
        splits = int(split.sum())
        dims = np.tile(_heap_dims(d), splits) if splits else eaten
        gen = _Generation(split, (sizes - ones)[~split], ones[~split], dims, data.xs[eaten, dims], eaten, arity)
        generations.append(gen)
        if trace is not None:
            children = levels[0][0] if levels else sizes[:0]
            frontier = _trace_generation(trace, gen, rows, sizes, children, frontier, data)
        if not splits:
            return generations


def build_lookahead(data: Dataset, config: LookaheadConfig, workers: int = 1,
                    trace: BuildTrace | None = None) -> PartitionTree:
    """Decide the tree from the root in ``_generations``. ``workers`` is
    checked as ``run_cells`` checks it, and changes nothing."""
    if config.d != data.d:
        raise ValueError(f"config is for d={config.d}, data has d={data.d}")
    if _integer(workers, "workers") < 1:
        raise ValueError("workers must be >= 1")
    return PartitionTree._of_generations(_generations(data, config, trace), data.d, "full", {
        "algo": "lookahead", "alpha": config.alpha, "beta": config.beta, "seed": config.seed, "n": data.n})
