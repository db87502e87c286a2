"""Tree classifier with a lookahead cell-local stop rule.

A cell compares the empirical misclassification of predicting its own
majority against the error it would have after k+ more full split levels,
where k+ = floor(alpha * log2(n + 1)) grows slowly with the cell size. If
the improvement does not beat (n + 1)^(-beta), splitting is not worth it and
the cell stops. Both quantities come from the cell's own points, so the rule
is deterministic and cellular.

Each probe level is grown once, by the one median kernel: the deepest level
is an id matrix, one row per cell in canonical order, and ``median._level``
grows a full level under every row at once. A cell that splits commits one
full 2^d-ary level, the first level of its own probe when it grew that
level, and hands each child its share of the probe: the label counts of
every deeper level in the child's block of canonical cells, and its block of
the deepest rows. The share is the child's own probe, which the child would
have grown from its own points, so a child grows at most the levels below
it. A view that carries no share (the root, a detached copy, a direct call)
grows its probe from scratch.

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

from .core import Dataset, DataView, Leaf, PartitionTree
from .median import _level, _row_ones, _rows, _splits, full_level_split
from .runtime import (
    BuildTrace,
    CellTask,
    DecisionFn,
    SplitDecision,
    _integer,
    run_cells,
)


class AdmissibilityError(ValueError):
    """alpha and beta do not satisfy 1 - d*alpha - 2*beta > 0."""


@dataclass(frozen=True)
class LookaheadConfig:
    """The lookahead rule's parameters. The seed is kept as a Python int: a
    numpy integer is converted, and a bool or a non-integer raises
    ValueError."""

    alpha: float
    beta: float
    d: int
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
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
    n = view.n
    if n == 0:
        return 0.0
    c0, c1 = view.label_counts()
    return min(c0, c1) / n


def k_plus(n: int, alpha: float) -> int:
    """Lookahead horizon floor(alpha * log2(n + 1)) for a cell of n points."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return int(math.floor(alpha * math.log2(n + 1)))


@dataclass(slots=True)
class _Probe:
    """A cell's scratch partition, some levels deep.

    ``counts[i]`` holds the (count0, count1) of the 2^{di} cells of level i
    in canonical order (level 0 is the cell itself). ``cells`` and ``sizes``
    are the deepest level's rows, as ``median._level`` grows them: an id
    matrix and each row's number of real ids. ``first`` is what ``_level``
    returned for the cell's own first level, when this probe grew it.
    """

    counts: list
    cells: np.ndarray
    sizes: np.ndarray
    first: tuple | None = None

    def share(self, j: int, arity: int) -> "_Probe":
        """Child j's block of every deeper level and of the rows: the child's own probe."""

        def block(level):
            return level[j * (len(level) // arity):(j + 1) * (len(level) // arity)]

        return _Probe([block(level) for level in self.counts[1:]], block(self.cells), block(self.sizes))


class _CarriedView(DataView):
    """A child's view carrying its share of the parent's probe. The view's
    first probe takes the share, so it is freed once the cell has decided."""

    __slots__ = ("_share",)

    @classmethod
    def carry(cls, view: DataView, share: _Probe) -> "_CarriedView":
        carried = cls._trusted(view.dataset, view.indices)
        object.__setattr__(carried, "_share", share)
        return carried

    def take_share(self) -> _Probe | None:
        share = self._share
        object.__setattr__(self, "_share", None)
        return share


def _probe(view: DataView, k: int) -> _Probe:
    """The view's scratch partition, at least k levels deep, each level grown
    once: from the view's carried share if it has one, else from the view."""
    share = view.take_share() if isinstance(view, _CarriedView) else None
    if share is None:
        share = _Probe([[view.label_counts()]], *_rows(view))
    counts, cells, sizes, first = share.counts, share.cells, share.sizes, None
    del share  # the growth below keeps only the newest level's rows
    dataset = view.dataset
    for _ in range(k + 1 - len(counts)):
        pivots, cells, sizes = _level(cells, sizes, dataset)
        if len(counts) == 1:
            first = pivots, cells, sizes
        ones = _row_ones(cells, sizes, dataset.ys)
        counts.append(list(zip((sizes - ones).tolist(), ones.tolist())))
    return _Probe(counts, cells, sizes, first)


def _error(counts: list, n: int) -> float:
    """Sum of (min(c0, c1) / nj) * (nj / n) over the nonempty cells, left to
    right; a cell of n points at level 0 gives its own empirical error."""
    total = 0.0
    for c0, c1 in counts:
        nj = c0 + c1
        if nj:
            total += (min(c0, c1) / nj) * (nj / n)
    return total


def _stops(probe: _Probe, k: int, n: int, beta: float) -> bool:
    gap = abs(_error(probe.counts[0], n) - _error(probe.counts[k], n))
    return gap <= (n + 1.0) ** (-beta)


def lookahead_error(view: DataView, k: int) -> float:
    """Error after k scratch full levels, weighted by child populations.

    Sum over the 2^{dk} leaf cells of (leaf error) * (leaf size / n). Eaten
    pivots make the weights sum to less than one. k = 0 is the cell's own
    empirical error by construction.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if view.n == 0:
        return 0.0
    return _error(_probe(view, k).counts[k], view.n)


def decide_stop_lookahead(view: DataView, config: LookaheadConfig) -> bool:
    """Stop iff the k+ lookahead gain is at most (n + 1)^(-beta).

    Cells too small for a nonzero horizon have zero gain and always stop;
    in particular empty and singleton cells never split.
    """
    n = view.n
    k = k_plus(n, config.alpha)
    return _stops(_probe(view, k), k, n, config.beta)


def lookahead_decision(config: LookaheadConfig) -> DecisionFn:
    """Cell decision closure: stop check, else commit one full level and
    carry each child's share of the probe on the child's view."""

    def decide(view, seed: int):
        n = view.n
        k = k_plus(n, config.alpha)
        probe = _probe(view, k)
        if _stops(probe, k, n, config.beta):
            return Leaf(*probe.counts[0][0])
        # a cell large enough to split cuts no empty row in its first level,
        # so the full split record always exists
        level = _splits(*probe.first, view.dataset)[0] if probe.first else full_level_split(view)
        arity = len(level.children)
        return SplitDecision(
            splits=level.split_records(),
            eaten=level.eaten,
            children=tuple(
                _CarriedView.carry(child, probe.share(j, arity))
                for j, child in enumerate(level.children)
            ),
        )

    return decide


def build_lookahead(
    data: Dataset,
    config: LookaheadConfig,
    workers: int = 1,
    trace: BuildTrace | None = None,
) -> PartitionTree:
    if config.d != data.d:
        raise ValueError(f"config is for d={config.d}, data has d={data.d}")
    root = CellTask(view=data.full_view(), seed=config.seed)
    generations = run_cells(root, lookahead_decision(config), workers=workers, trace=trace, _records=True)
    return PartitionTree._of_generations(
        generations,
        data.d,
        "full",
        {
            "algo": "lookahead",
            "alpha": config.alpha,
            "beta": config.beta,
            "seed": config.seed,
            "n": data.n,
        },
    )
