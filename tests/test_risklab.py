import csv
import math

import numpy as np
import pytest
from scipy.integrate import quad

from celltree import (
    LookaheadConfig,
    RandomizedConfig,
    bayes_classify,
    bayes_predictor,
    build_full_tree,
    build_lookahead,
    build_randomized,
    builtin_distributions,
    constant_predictor,
    depth_profile,
    empirical_risk,
    estimate_level_risk,
    get_distribution,
    risk_curve,
    tree_predictor,
    write_risk_csv,
)
from celltree.risklab import ALGORITHMS, RISK_CSV_COLUMNS, build_tree


def test_catalog_lists_all_builtins():
    assert set(builtin_distributions()) == {"d-const", "d-lin", "d-checker"}
    for name in builtin_distributions():
        dist = get_distribution(name, d=2)
        assert dist.name.startswith(name)
        assert dist.d == 2


def test_unknown_distribution_raises():
    with pytest.raises(KeyError):
        get_distribution("d-spiral")


def test_checkerboard_requires_two_dimensions():
    with pytest.raises(ValueError):
        get_distribution("d-checker", d=3)


# ---------------------------------------------------------------------------
# Bayes risk oracles.  Each catalog entry carries a closed-form bayes_risk;
# here the same quantity is recomputed by numerical integration or dense
# grids so the frozen constants cannot drift.


def test_dlin_bayes_risk_matches_quadrature():
    # risk of the optimal rule = E[min(eta, 1 - eta)] with eta(x) = x_1
    integral, err = quad(lambda t: min(t, 1.0 - t), 0.0, 1.0)
    assert err < 1e-9
    dist = get_distribution("d-lin", d=3)
    assert dist.bayes_risk == pytest.approx(integral, abs=1e-9)
    assert dist.bayes_risk == 0.25


def test_dchecker_bayes_risk_matches_grid():
    dist = get_distribution("d-checker")
    side = 400
    centers = (np.arange(side) + 0.5) / side
    xx, yy = np.meshgrid(centers, centers)
    grid = np.column_stack([xx.ravel(), yy.ravel()])
    eta = dist.eta(grid)
    assert set(np.round(eta, 12).tolist()) == {0.1, 0.9}
    assert np.mean(np.minimum(eta, 1.0 - eta)) == pytest.approx(dist.bayes_risk, abs=1e-12)
    assert dist.bayes_risk == 0.1


@pytest.mark.parametrize("p", [0.5, 0.3, 0.9])
def test_dconst_bayes_risk(p):
    dist = get_distribution("d-const", d=2, p=p)
    assert dist.bayes_risk == pytest.approx(min(p, 1.0 - p))
    xs = np.random.default_rng(0).random((50, 2))
    assert np.all(dist.eta(xs) == p)


def test_bayes_classify_breaks_ties_toward_zero():
    dist = get_distribution("d-const", d=1, p=0.5)
    xs = np.random.default_rng(1).random((10, 1))
    assert np.all(bayes_classify(dist, xs) == 0)


def test_eta_is_a_probability_everywhere():
    rng = np.random.default_rng(2)
    for name in builtin_distributions():
        dist = get_distribution(name, d=2)
        eta = dist.eta(rng.random((1000, 2)))
        assert np.all((eta >= 0.0) & (eta <= 1.0))


def test_sample_labels_follow_eta():
    dist = get_distribution("d-lin", d=1)
    data = dist.sample(200_000, seed=3)
    lo = data.ys[data.xs[:, 0] < 0.1]
    hi = data.ys[data.xs[:, 0] > 0.9]
    assert abs(lo.mean() - 0.05) < 0.01
    assert abs(hi.mean() - 0.95) < 0.01


# ---------------------------------------------------------------------------
# empirical risk


def test_empirical_risk_of_bayes_rule_on_pure_noise():
    dist = get_distribution("d-const", d=2, p=0.5)
    est = empirical_risk(bayes_predictor(dist), dist, m=100_000, seed=7)
    assert est.m == 100_000
    assert abs(est.mean - 0.5) <= 3 * est.std_error
    assert est.std_error == pytest.approx(math.sqrt(0.25 / 100_000), rel=0.05)


def test_empirical_risk_of_constant_rule_on_checkerboard():
    dist = get_distribution("d-checker")
    est = empirical_risk(constant_predictor(0), dist, m=100_000, seed=8)
    assert abs(est.mean - 0.5) <= 3 * est.std_error


def test_bayes_rule_achieves_its_advertised_risk():
    dist = get_distribution("d-lin", d=2)
    est = empirical_risk(bayes_predictor(dist), dist, m=200_000, seed=9)
    assert abs(est.mean - dist.bayes_risk) <= 3 * est.std_error


def test_no_candidate_beats_bayes():
    # optimality spot check: several plug-in rules, none significantly
    # below the Bayes rule on the same test stream
    dist = get_distribution("d-checker")
    m = 60_000
    bayes = empirical_risk(bayes_predictor(dist), dist, m=m, seed=10)
    candidates = [constant_predictor(0), constant_predictor(1)]
    train = dist.sample(4000, seed=11)
    tree = build_randomized(train, RandomizedConfig(beta=0.5, seed=11))
    candidates.append(tree_predictor(tree))
    for rule in candidates:
        est = empirical_risk(rule, dist, m=m, seed=10)
        gap = est.mean - bayes.mean
        combined = math.hypot(est.std_error, bayes.std_error)
        assert gap >= -3 * combined


def test_empirical_risk_is_deterministic_per_seed():
    dist = get_distribution("d-lin", d=1)
    a = empirical_risk(constant_predictor(1), dist, m=5000, seed=4)
    b = empirical_risk(constant_predictor(1), dist, m=5000, seed=4)
    assert a == b


# ---------------------------------------------------------------------------
# level-risk estimates


def test_level_risk_on_noise_is_flat():
    dist = get_distribution("d-const", d=1, p=0.3)
    for k in (0, 1, 3):
        est = estimate_level_risk(dist, n=2000, k=k, reps=4, seed=5)
        assert abs(est.mean - 0.3) <= max(3 * est.std_error, 0.03)


def test_level_risk_k0_equals_trivial_rule():
    dist = get_distribution("d-lin", d=1)
    est = estimate_level_risk(dist, n=1000, k=0, reps=3, seed=6)
    assert abs(est.mean - 0.5) <= 0.02


def test_level_risk_nonincreasing_in_k():
    dist = get_distribution("d-lin", d=1)
    prev = None
    for k in (0, 2, 4):
        est = estimate_level_risk(dist, n=5000, k=k, reps=4, seed=7)
        if prev is not None:
            combined = math.hypot(est.std_error, prev.std_error)
            assert est.mean <= prev.mean + 3 * combined + 0.01
        prev = est
    # with 16 cells on d-lin the rule is close to optimal
    assert prev.mean <= 0.30


def test_level_risk_requires_enough_points():
    dist = get_distribution("d-lin", d=2)
    with pytest.raises(ValueError):
        estimate_level_risk(dist, n=10, k=3, reps=2, seed=0)


# ---------------------------------------------------------------------------
# depth profiles


def test_depth_profile_single_leaf():
    dist = get_distribution("d-const", d=1, p=0.5)
    train = dist.sample(2, seed=12)
    tree = build_randomized(train, RandomizedConfig(beta=0.5, seed=0))
    # n=2 < 3 means the stop probability is one: the root is a leaf
    profile = depth_profile(tree, dist, m=500, seed=1)
    assert profile == {0: 500}


def test_depth_profile_full_tree_is_constant_depth():
    from celltree import Internal, Leaf, PartitionTree

    dist = get_distribution("d-lin", d=2)
    train = dist.sample(300, seed=13)
    full = build_full_tree(train.full_view(), k=2)
    assert full.complete

    def to_node(level_idx, pos):
        if level_idx == full.k:
            c0, c1 = full.leaf_counts[pos]
            return Leaf(c0, c1)
        cascade = full.levels[level_idx][pos]
        children = tuple(
            to_node(level_idx + 1, (pos << full.d) | j) for j in range(1 << full.d)
        )
        return Internal(
            splits=cascade.split_records(), eaten=cascade.eaten, children=children
        )

    tree = PartitionTree(root=to_node(0, 0), d=2, mode="full", config={})
    profile = depth_profile(tree, dist, m=400, seed=2)
    assert profile == {2: 400}


# ---------------------------------------------------------------------------
# risk curves and CSV output


def test_risk_curve_row_layout():
    curve = risk_curve(
        "randomized",
        get_distribution("d-lin", d=1),
        n_grid=(100, 400),
        reps=3,
        m=2000,
        seed=21,
        beta=0.5,
    )
    per_rep = [r for r in curve.rows if r.reps == 1]
    aggregates = [r for r in curve.rows if r.reps == 3]
    assert len(per_rep) == 6 and len(aggregates) == 2
    for agg in aggregates:
        members = [r.mean_risk for r in per_rep if r.n == agg.n]
        assert agg.mean_risk == pytest.approx(float(np.mean(members)))
        assert agg.std_error == pytest.approx(
            float(np.std(members, ddof=1)) / math.sqrt(3)
        )
        assert agg.bayes_risk == 0.25
        assert agg.algorithm == "randomized"
        assert agg.alpha is None and agg.beta == 0.5


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0, -0.5, math.nan])
def test_risk_curve_checks_a_randomized_beta_before_any_work(beta):
    with pytest.raises(ValueError, match="beta must be in"):
        risk_curve("randomized", get_distribution("d-lin", d=1), [], 1, 10, 0, beta=beta)


def test_risk_curve_is_reproducible():
    dist = get_distribution("d-lin", d=2)
    kwargs = dict(n_grid=(200,), reps=2, m=1000, seed=33, alpha=0.1, beta=0.2)
    a = risk_curve("lookahead", dist, **kwargs)
    b = risk_curve("lookahead", dist, **kwargs)
    assert a.rows == b.rows


def test_risk_curve_worker_count_does_not_change_rows():
    dist = get_distribution("d-lin", d=1)
    kwargs = dict(n_grid=(300,), reps=2, m=1000, seed=34, beta=0.5)
    a = risk_curve("randomized", dist, workers=1, **kwargs)
    b = risk_curve("randomized", dist, workers=4, **kwargs)
    assert a.rows == b.rows


def test_write_risk_csv(tmp_path):
    curve = risk_curve(
        "randomized",
        get_distribution("d-const", d=1),
        n_grid=(50,),
        reps=2,
        m=500,
        seed=40,
        beta=0.5,
    )
    out = tmp_path / "curve.csv"
    write_risk_csv(curve, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(RISK_CSV_COLUMNS)
    assert len(rows) == 1 + len(curve.rows)
    by_name = dict(zip(rows[0], rows[1]))
    assert by_name["algorithm"] == "randomized"
    assert by_name["alpha"] == ""  # not applicable to the randomized rule
    assert float(by_name["mean_risk"]) == curve.rows[0].mean_risk


def test_build_tree_dispatches_to_each_builder():
    data = get_distribution("d-lin", d=2).sample(300, seed=41)
    assert ALGORITHMS == ("randomized", "lookahead")
    assert build_tree("randomized", data, None, 0.5, seed=3) == build_randomized(
        data, RandomizedConfig(beta=0.5, seed=3)
    )
    assert build_tree("lookahead", data, 0.1, 0.2, seed=3) == build_lookahead(
        data, LookaheadConfig(alpha=0.1, beta=0.2, d=2, seed=3)
    )
    with pytest.raises(ValueError, match="unknown algorithm"):
        build_tree("greedy", data, None, 0.5, seed=3)


# ---------------------------------------------------------------------------
# median mass: the fraction of mass captured by the low child of a median
# cut of n uniform points concentrates near 1/2


def test_low_child_mass_matches_order_statistics():
    # for n=101 uniform points the cut lands on the 51st order statistic,
    # whose expectation is 51/102; the low-child probability mass equals
    # the cut coordinate itself
    n, runs = 101, 500
    rng = np.random.default_rng(55)
    masses = np.empty(runs)
    from celltree import Dataset, median_split

    for i in range(runs):
        xs = rng.random((n, 1))
        data = Dataset(xs, np.zeros(n, dtype=np.int8))
        masses[i] = median_split(data.full_view(), 0).threshold
    expected = 51.0 / 102.0
    se = math.sqrt(expected * (1 - expected) / (n + 2)) / math.sqrt(runs)
    assert abs(masses.mean() - expected) <= 3 * se
