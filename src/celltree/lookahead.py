"""Tree classifier with a lookahead cell-local stop rule.

A cell compares the empirical misclassification of predicting its own
majority against the error it would have after k+ more full split levels,
where k+ = floor(alpha * log2(n + 1)) grows slowly with the cell size. If
the improvement does not beat (n + 1)^(-beta), splitting is not worth it and
the cell stops. Both quantities come from the cell's own points, so the rule
is deterministic and cellular.

The scratch tree grown to depth k+ is a probe only: it is discarded, and a
cell that does split commits exactly one full 2^d-ary level.

Float determinism note: the error formulas below fix the evaluation order
(single division per term, leaf terms accumulated left to right in canonical
leaf order). Independent reimplementations that follow the same order, such
as the naive reference used in tests, reproduce the values bit for bit and
therefore the exact same trees.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Dataset, DataView, Leaf, PartitionTree
from .median import full_level_split, full_tree_leaves
from .runtime import (
    BuildTrace,
    CellTask,
    DecisionFn,
    SplitDecision,
    run_cells,
)


class AdmissibilityError(ValueError):
    """alpha and beta do not satisfy 1 - d*alpha - 2*beta > 0."""


@dataclass(frozen=True)
class LookaheadConfig:
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


def lookahead_error(view: DataView, k: int) -> float:
    """Error after k scratch full levels, weighted by child populations.

    Sum over the 2^{dk} leaf cells of (leaf error) * (leaf size / n). Eaten
    pivots make the weights sum to less than one. k = 0 is the cell's own
    empirical error by construction.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    n = view.n
    if n == 0:
        return 0.0
    leaves, _ = full_tree_leaves(view, k)
    total = 0.0
    for leaf in leaves:
        nj = leaf.n
        if nj:
            c0, c1 = leaf.label_counts()
            total += (min(c0, c1) / nj) * (nj / n)
    return total


def decide_stop_lookahead(view: DataView, config: LookaheadConfig) -> bool:
    """Stop iff the k+ lookahead gain is at most (n + 1)^(-beta).

    Cells too small for a nonzero horizon have zero gain and always stop;
    in particular empty and singleton cells never split.
    """
    n = view.n
    k = k_plus(n, config.alpha)
    gap = abs(empirical_error(view) - lookahead_error(view, k))
    return gap <= (n + 1.0) ** (-config.beta)


def lookahead_decision(config: LookaheadConfig) -> DecisionFn:
    """Cell decision closure: stop check, else commit one full level."""

    def decide(view, seed: int):
        if decide_stop_lookahead(view, config):
            return Leaf(*view.label_counts())
        level = full_level_split(view)
        # a cell large enough to split has every cascade cut on a nonempty
        # view, so the full split record always exists
        return SplitDecision(
            splits=level.split_records(),
            eaten=level.eaten,
            children=level.children,
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
    node = run_cells(root, lookahead_decision(config), workers=workers, trace=trace)
    return PartitionTree(
        root=node,
        d=data.d,
        mode="full",
        config={
            "algo": "lookahead",
            "alpha": config.alpha,
            "beta": config.beta,
            "seed": config.seed,
            "n": data.n,
        },
    )
