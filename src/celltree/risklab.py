"""Synthetic benchmark distributions and Monte Carlo risk estimation.

Every distribution here has a known regression function eta(x) = P(Y=1 | x)
and a closed-form Bayes risk, so estimated classifier risks can be compared
against the true optimum. X is always uniform on [0,1]^d; labels are drawn
as Bernoulli(eta(X)).

Built-ins:

* d-const   eta is the constant p; Bayes risk min(p, 1-p). With p = 0.5 the
            label is pure noise, every classifier has risk exactly 0.5.
* d-lin     eta(x) = x_1; Bayes risk 1/4. One median cut in dimension 1
            already realizes the Bayes rule.
* d-checker 2x2 checkerboard on [0,1]^2, eta alternating 0.9 / 0.1 with
            eta = 0.9 on the diagonal blocks; Bayes risk 0.1.
"""
from __future__ import annotations

import csv
import functools
import math
from dataclasses import astuple, dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .core import Dataset, PartitionTree, _integer, _real, predict_batch, route_depths
from .lookahead import LookaheadConfig, build_lookahead
from .median import _partition_tree, build_full_tree
from .randomized import RandomizedConfig, build_randomized
from .runtime import derive_child_seed


def _generator(seed: int) -> np.random.Generator:
    """``default_rng(seed)``. ``PCG64`` takes only an integer seed >= 0;
    another is refused here with a message that names it."""
    if _integer(seed, "seed") < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class SyntheticDistribution:
    name: str
    d: int
    bayes_risk: float
    eta: Callable[[np.ndarray], np.ndarray]

    def sample_x(self, m: int, seed: int) -> np.ndarray:
        return _generator(seed).random((m, self.d))

    def sample(self, n: int, seed: int) -> Dataset:
        """n labeled points: X uniform on the cube, Y ~ Bernoulli(eta(X))."""
        rng = _generator(seed)
        X = rng.random((n, self.d))
        Y = (rng.random(n) < self.eta(X)).astype(np.int8)
        return Dataset(X, Y)


def _checker_eta(X: np.ndarray) -> np.ndarray:
    parity = (np.floor(2 * X[:, 0]) + np.floor(2 * X[:, 1])) % 2
    return np.where(parity == 0, 0.9, 0.1)


def builtin_distributions() -> tuple[str, ...]:
    return ("d-const", "d-lin", "d-checker")


def get_distribution(name: str, d: int = 2, p: float = 0.5) -> SyntheticDistribution:
    if _integer(d, "d") < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    key = name.strip().lower()
    if key == "d-const":
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        return SyntheticDistribution(
            name=f"d-const(p={p:g})",
            d=d,
            bayes_risk=min(p, 1.0 - p),
            eta=lambda X, _p=p: np.full(X.shape[0], _p),
        )
    if key == "d-lin":
        return SyntheticDistribution(
            name="d-lin", d=d, bayes_risk=0.25, eta=lambda X: X[:, 0]
        )
    if key == "d-checker":
        if d != 2:
            raise ValueError("d-checker is defined on d=2")
        return SyntheticDistribution(
            name="d-checker", d=2, bayes_risk=0.1, eta=_checker_eta
        )
    raise KeyError(f"unknown distribution {name!r}, have {builtin_distributions()}")


def bayes_classify(dist: SyntheticDistribution, x) -> int:
    """Bayes rule: predict 1 iff eta(x) > 1/2, ties to 0."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return int(dist.eta(x)[0] > 0.5)


def bayes_predictor(dist: SyntheticDistribution) -> Callable[[np.ndarray], np.ndarray]:
    return lambda X: (dist.eta(X) > 0.5).astype(np.int8)


def tree_predictor(tree: PartitionTree) -> Callable[[np.ndarray], np.ndarray]:
    """``predict_batch`` for one tree, whose kept cut table serves every batch."""
    return functools.partial(predict_batch, tree)


def constant_predictor(label: int) -> Callable[[np.ndarray], np.ndarray]:
    return lambda X: np.full(X.shape[0], label, dtype=np.int8)


@dataclass(frozen=True)
class RiskEstimate:
    mean: float
    std_error: float
    m: int


# query rows that empirical_risk draws and predicts at a time
_RISK_CHUNK_ROWS = 1 << 16


def empirical_risk(
    predict: Callable[[np.ndarray], np.ndarray],
    dist: SyntheticDistribution,
    m: int,
    seed: int,
) -> RiskEstimate:
    """Misclassification rate of a batch predictor on m fresh pairs.

    The pairs are those of ``default_rng(seed)`` drawing all m x d
    coordinates of X, then the m uniforms that decide Y. They are drawn and
    predicted ``_RISK_CHUNK_ROWS`` rows at a time, so memory stays bounded
    for any m: Y's uniforms come from a second generator on the same seed,
    advanced past X's m * d draws, and the errors are counted as an integer.
    ``predict`` must return one 0/1 value per row it is given, else
    ValueError. Standard error is the binomial sqrt(p(1-p)/m) of the
    estimate itself.
    ``seed`` must be >= 0, as ``PCG64`` takes it.
    """
    if _integer(m, "m") < 1:
        raise ValueError("m must be >= 1")
    x_rng, y_rng = _generator(seed), _generator(seed)
    y_rng.bit_generator.advance(m * dist.d)
    errors = 0
    for start in range(0, m, _RISK_CHUNK_ROWS):
        X = x_rng.random((min(_RISK_CHUNK_ROWS, m - start), dist.d))
        Y = (y_rng.random(len(X)) < dist.eta(X)).astype(np.int8)
        predicted = np.asarray(predict(X))
        if predicted.shape != Y.shape or not ((predicted == 0) | (predicted == 1)).all():
            raise ValueError(f"a predictor must return a ({len(X)},) array of 0/1 values, "
                             f"got {predicted.dtype} values of shape {predicted.shape}")
        errors += int(np.count_nonzero(predicted != Y))
    p_hat = errors / m
    return RiskEstimate(p_hat, math.sqrt(p_hat * (1.0 - p_hat) / m), m)


def depth_profile(
    tree: PartitionTree, dist: SyntheticDistribution, m: int, seed: int
) -> dict[int, int]:
    """Histogram {depth: count} of routed depths over m query draws."""
    if _integer(m, "m") < 1:
        raise ValueError("m must be >= 1")
    depths = route_depths(tree, dist.sample_x(m, seed))
    values, counts = np.unique(depths, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


_LEAF_SAMPLE_TARGET = 2500  # conditional eta SE <= 0.5 / sqrt(2500) = 0.01
_MAX_SAMPLE_ROUNDS = 6


def estimate_level_risk(
    dist: SyntheticDistribution, n: int, k: int, reps: int, seed: int
) -> RiskEstimate:
    """Monte Carlo estimate of the mean cell-wise Bayes risk at depth k.

    For each of ``reps`` fresh datasets, grow k full median levels, then
    estimate E[min(eta_bar(A), 1 - eta_bar(A))] over the random leaf A
    containing an independent X. Conditional means within each leaf come
    from uniform draws routed into the partition; the sample budget adapts
    until every visited leaf has enough points for a standard error of 0.01.
    """
    seed = _integer(seed, "seed")
    if _integer(reps, "reps") < 1:
        raise ValueError("reps must be >= 1")
    if _integer(k, "k") < 0:
        raise ValueError("k must be >= 0")
    cells = 1 << (dist.d * k)
    if _integer(n, "n") < cells:
        raise ValueError(f"need n >= 2^(d*k) = {cells} points, got {n}")
    per_rep: list[float] = []
    for rep in range(reps):
        rep_seed = derive_child_seed(seed, rep)
        data = dist.sample(n, derive_child_seed(rep_seed, 0))
        tree = _partition_tree(build_full_tree(data.full_view(), k))
        rng = np.random.default_rng(derive_child_seed(rep_seed, 1))
        leaf_of = np.empty(0, dtype=np.int64)
        etas = np.empty(0, dtype=np.float64)
        for _ in range(_MAX_SAMPLE_ROUNDS):
            batch = dist.sample_x(_LEAF_SAMPLE_TARGET * cells, int(rng.integers(1 << 63)))
            leaf_of = np.concatenate([leaf_of, tree._cuts.leaf_of(batch)])
            etas = np.concatenate([etas, dist.eta(batch)])
            counts = np.bincount(leaf_of, minlength=cells)
            if counts[counts > 0].min(initial=_LEAF_SAMPLE_TARGET) >= _LEAF_SAMPLE_TARGET:
                break
        # a stable sort by leaf gives each cell its samples in draw order, one
        # contiguous run per cell, so each mean sums what a per-cell mask would
        grouped = etas[np.argsort(leaf_of, kind="stable")]
        ends = np.cumsum(counts)
        value = 0.0
        for cell in np.flatnonzero(counts):
            eta_bar = float(grouped[ends[cell] - counts[cell] : ends[cell]].mean())
            value += (int(counts[cell]) / len(leaf_of)) * min(eta_bar, 1.0 - eta_bar)
        per_rep.append(value)
    mean = float(np.mean(per_rep))
    if reps == 1:
        se = 0.01  # dominated by the per-leaf conditional budget
    else:
        se = float(np.std(per_rep, ddof=1) / math.sqrt(reps))
    return RiskEstimate(mean, se, reps)


# ---------------------------------------------------------------------------
# risk curves

ALGORITHMS = ("randomized", "lookahead")


def build_tree(
    algo: str,
    data: Dataset,
    alpha: float | None,
    beta: float,
    seed: int,
    workers: int = 1,
) -> PartitionTree:
    """Fit the classifier named by ``algo``; the randomized one takes no alpha."""
    if algo == "randomized":
        return build_randomized(data, RandomizedConfig(beta=beta, seed=seed), workers=workers)
    if algo == "lookahead":
        config = LookaheadConfig(alpha=alpha, beta=beta, d=data.d, seed=seed)
        return build_lookahead(data, config, workers=workers)
    raise ValueError(f"unknown algorithm {algo!r}")


@dataclass(frozen=True)
class RiskRow:
    distribution: str
    algorithm: str
    alpha: float | None
    beta: float
    n: int
    reps: int
    mean_risk: float
    std_error: float
    bayes_risk: float


RISK_CSV_COLUMNS = tuple(f.name for f in fields(RiskRow))


@dataclass(frozen=True)
class RiskCurve:
    rows: tuple[RiskRow, ...]        # per-rep rows then the aggregate, per n
    aggregates: tuple[RiskRow, ...]  # one row per n


def risk_curve(
    algo: str,
    dist: SyntheticDistribution,
    n_grid: Sequence[int],
    reps: int,
    m: int,
    seed: int,
    alpha: float | None = None,
    beta: float = 0.5,
    workers: int = 1,
) -> RiskCurve:
    """Train/evaluate ``reps`` trees per n and report risk against Bayes.

    Per-rep rows carry reps=1 and the rep's own evaluation standard error;
    the aggregate row per n carries reps=R, the mean over reps and the
    standard error of that mean across reps.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    seed = _integer(seed, "seed")
    if _integer(reps, "reps") < 1:
        raise ValueError("reps must be >= 1")
    if _integer(m, "m") < 1:  # before any tree is trained for it
        raise ValueError("m must be >= 1")
    n_grid = [_integer(n, "n") for n in n_grid]
    if any(n < 0 for n in n_grid):
        raise ValueError(f"n must be >= 0, got {min(n_grid)}")
    if algo == "lookahead":
        if alpha is None:
            raise ValueError("lookahead needs alpha")
        config = LookaheadConfig(alpha=alpha, beta=beta, d=dist.d)  # admissibility check up front
        alpha, beta = config.alpha, config.beta
    else:  # no config reads alpha, which the row still carries
        beta = RandomizedConfig(beta=beta).beta  # beta range check up front
        alpha = alpha if alpha is None else _real(alpha, "alpha")
    rows: list[RiskRow] = []
    aggregates: list[RiskRow] = []
    for i, n in enumerate(n_grid):
        n_seed = derive_child_seed(seed, i)
        row = functools.partial(
            RiskRow, dist.name, algo, alpha, beta, n, bayes_risk=dist.bayes_risk
        )
        rep_estimates: list[RiskEstimate] = []
        for rep in range(reps):
            rep_seed = derive_child_seed(n_seed, rep)
            data = dist.sample(n, derive_child_seed(rep_seed, 0))
            tree = build_tree(algo, data, alpha, beta, derive_child_seed(rep_seed, 1), workers)
            est = empirical_risk(
                tree_predictor(tree), dist, m, derive_child_seed(rep_seed, 2)
            )
            rep_estimates.append(est)
            rows.append(row(1, est.mean, est.std_error))
        means = [e.mean for e in rep_estimates]
        if reps > 1:
            agg_se = float(np.std(means, ddof=1) / math.sqrt(reps))
        else:
            agg_se = rep_estimates[0].std_error
        aggregates.append(row(reps, float(np.mean(means)), agg_se))
        rows.append(aggregates[-1])
    return RiskCurve(rows=tuple(rows), aggregates=tuple(aggregates))


def _csv_cell(value):
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else value


def write_risk_csv(curve: RiskCurve, path) -> None:
    """One header of ``RISK_CSV_COLUMNS``, then one line per row of the curve."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RISK_CSV_COLUMNS)
        writer.writerows([_csv_cell(v) for v in astuple(row)] for row in curve.rows)
