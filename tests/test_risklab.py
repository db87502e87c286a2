import csv
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from celltree import (
    Leaf,
    LookaheadConfig,
    PartitionTree,
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
from celltree.median import _partition_tree
from celltree.risklab import (
    _LEAF_SAMPLE_TARGET,
    _MAX_SAMPLE_ROUNDS,
    ALGORITHMS,
    RISK_CSV_COLUMNS,
    build_tree,
)
from celltree.runtime import derive_child_seed


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


def _one_draw_risk(predict, dist, m, seed):
    """The estimate from one draw of all m pairs: X's m x d uniforms, then Y's m."""
    rng = np.random.default_rng(seed)
    X = rng.random((m, dist.d))
    Y = (rng.random(m) < dist.eta(X)).astype(np.int8)
    p_hat = float((np.asarray(predict(X), dtype=np.int8) != Y).mean())
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / m)


@pytest.mark.parametrize("d", [1, 2])
def test_empirical_risk_in_chunks_equals_one_chunk(monkeypatch, d):
    dist = get_distribution("d-lin", d=d)
    tree = build_randomized(dist.sample(500, 3), RandomizedConfig(beta=0.5, seed=3))
    m, seed = 1_000, 11
    for predict in (tree_predictor(tree), bayes_predictor(dist), constant_predictor(1)):
        whole = empirical_risk(predict, dist, m, seed)
        assert (whole.mean, whole.std_error) == _one_draw_risk(predict, dist, m, seed)
        monkeypatch.setattr("celltree.risklab._RISK_CHUNK_ROWS", 64)  # 1,000 is no multiple of 64
        assert empirical_risk(predict, dist, m, seed) == whole
        monkeypatch.undo()


def test_empirical_risk_memory_is_bounded_by_the_chunk():
    dist = get_distribution("d-lin", d=1)
    m = 4_000_000  # one float64 array of m values is 32 MB
    tracemalloc.start()
    try:
        est = empirical_risk(bayes_predictor(dist), dist, m, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.m == m and abs(est.mean - dist.bayes_risk) <= 3 * est.std_error
    assert peak < 8 * m // 4


def test_empirical_risk_of_constant_rule_on_checkerboard():
    dist = get_distribution("d-checker")
    est = empirical_risk(constant_predictor(0), dist, m=100_000, seed=8)
    assert abs(est.mean - 0.5) <= 3 * est.std_error


@pytest.mark.parametrize("seed", (-1, -(2**63)))
def test_empirical_risk_refuses_a_negative_seed(seed):
    dist = get_distribution("d-lin", d=1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        empirical_risk(constant_predictor(0), dist, m=10, seed=seed)


@pytest.mark.parametrize("predict", [
    lambda X: np.zeros((len(X), 1), dtype=np.int8),  # a column would broadcast against the labels
    lambda X: np.zeros(len(X) + 1, dtype=np.int8),
    lambda X: np.int8(0),
    lambda X: np.full(len(X), 257),  # an int8 cast would read it as 1
    lambda X: np.full(len(X), 0.9),  # an int8 cast would read it as 0
    lambda X: np.full(len(X), -1),
])
def test_empirical_risk_refuses_predictions_that_are_not_one_0_1_value_per_row(predict):
    dist = get_distribution("d-lin", d=1)
    with pytest.raises(ValueError, match=r"a predictor must return a \(1000,\) array of 0/1 values"):
        empirical_risk(predict, dist, m=1_000, seed=5)


def test_empirical_risk_takes_bool_and_float_0_1_predictions():
    dist = get_distribution("d-lin", d=1)
    tree = build_randomized(dist.sample(300, 3), RandomizedConfig(beta=0.5, seed=3))
    want = empirical_risk(tree_predictor(tree), dist, m=1_000, seed=5)
    for kind in (bool, np.float64):
        assert empirical_risk(lambda X: tree_predictor(tree)(X).astype(kind), dist, m=1_000, seed=5) == want


@pytest.mark.parametrize("seed", (-1, -(2**63)))
def test_sampling_refuses_a_negative_seed(seed):
    dist = get_distribution("d-lin", d=1)
    tree = build_randomized(dist.sample(50, 0), RandomizedConfig(beta=0.5))
    for draw in (lambda: dist.sample(10, seed), lambda: dist.sample_x(10, seed),
                 lambda: depth_profile(tree, dist, 10, seed)):
        with pytest.raises(ValueError, match=f"^seed must be >= 0, got {seed}$"):
            draw()


@pytest.mark.parametrize("seed", (True, 1.5, None, "3"))
def test_every_seed_is_read_as_an_integer(seed):
    # a bool is no seed 1, and a value of no integer kind is a ValueError
    # that names the seed, as it is for a build's config
    dist = get_distribution("d-lin", d=1)
    for draw in (lambda s: dist.sample(10, s).xs.tolist(), lambda s: dist.sample_x(10, s).tolist(),
                 lambda s: empirical_risk(constant_predictor(0), dist, m=10, seed=s),
                 lambda s: estimate_level_risk(dist, n=20, k=1, reps=1, seed=s),
                 lambda s: risk_curve("randomized", dist, [20], 1, 10, s)):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            draw(seed)
        assert draw(np.int64(3)) == draw(3)


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


def _mask_level_risk_mean(dist, n, k, reps, seed):
    """estimate_level_risk's mean, one boolean mask per cell: the reference
    for its grouped per-cell means."""
    cells = 1 << (dist.d * k)
    per_rep = []
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
        value = 0.0
        for cell in np.flatnonzero(counts):
            eta_bar = float(etas[leaf_of == cell].mean())
            value += (int(counts[cell]) / len(leaf_of)) * min(eta_bar, 1.0 - eta_bar)
        per_rep.append(value)
    return float(np.mean(per_rep))


@pytest.mark.parametrize(
    "name, d, n, k",
    [("d-lin", 1, 500, 0), ("d-lin", 1, 3000, 5), ("d-checker", 2, 4000, 3), ("d-lin", 3, 1000, 1)],
)
def test_level_risk_matches_the_per_cell_mask_reference(name, d, n, k):
    dist = get_distribution(name, d=d)
    est = estimate_level_risk(dist, n=n, k=k, reps=2, seed=3)
    assert est.mean == _mask_level_risk_mean(dist, n, k, reps=2, seed=3)


def test_level_risk_of_one_rep_reports_the_leaf_budget_error():
    dist = get_distribution("d-lin", d=1)
    est = estimate_level_risk(dist, n=500, k=1, reps=1, seed=3)
    assert est.m == 1 and est.std_error == 0.01  # the per-leaf conditional budget
    assert est.mean == _mask_level_risk_mean(dist, 500, 1, reps=1, seed=3)


_D_LIN = get_distribution("d-lin", d=1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: get_distribution("d-const", p=1.5), r"p must be in \[0, 1\]"),
        (lambda: empirical_risk(constant_predictor(0), _D_LIN, 0, 0), "m must be >= 1"),
        (lambda: depth_profile(PartitionTree(Leaf(1, 0), 1, "binary", {}), _D_LIN, 0, 0), "m must be >= 1"),
        (lambda: estimate_level_risk(_D_LIN, n=100, k=1, reps=0, seed=0), "reps must be >= 1"),
        (lambda: risk_curve("cart", _D_LIN, [], 1, 10, 0), "unknown algorithm 'cart'"),
        (lambda: risk_curve("randomized", _D_LIN, [], 0, 10, 0), "reps must be >= 1"),
        (lambda: risk_curve("lookahead", _D_LIN, [], 1, 10, 0, beta=0.2), "lookahead needs alpha"),
        (lambda: risk_curve("randomized", _D_LIN, [20], True, 10, 0), "reps must be an integer, not a bool"),
        (lambda: risk_curve("randomized", _D_LIN, [-1], 1, 10, 0), "n must be >= 0, got -1"),
        (lambda: risk_curve("randomized", _D_LIN, [20.0], 1, 10, 0), "n must be an integer, got 20.0"),
        (lambda: empirical_risk(constant_predictor(0), _D_LIN, True, 0), "m must be an integer, not a bool"),
        (lambda: empirical_risk(constant_predictor(0), _D_LIN, 2.5, 0), "m must be an integer, got 2.5"),
        (lambda: depth_profile(PartitionTree(Leaf(1, 0), 1, "binary", {}), _D_LIN, 2.5, 0),
         "m must be an integer, got 2.5"),
        (lambda: estimate_level_risk(_D_LIN, n=100, k=-1, reps=1, seed=0), "k must be >= 0"),
        (lambda: estimate_level_risk(_D_LIN, n=100, k=1.5, reps=1, seed=0), "k must be an integer, got 1.5"),
        (lambda: estimate_level_risk(_D_LIN, n=100, k=1, reps=1.5, seed=0), "reps must be an integer, got 1.5"),
        (lambda: get_distribution("d-lin", d=1.5), "d must be an integer, got 1.5"),
        (lambda: get_distribution("d-lin", d=0), "d must be >= 1, got 0"),
        (lambda: LookaheadConfig(0.1, 0.1, d=True), "d must be an integer, not a bool"),
        (lambda: LookaheadConfig(0.1, 0.1, d=2.0), "d must be an integer, got 2.0"),
    ],
    ids=["p-1.5", "risk-m-0", "profile-m-0", "level-reps-0", "unknown-algo", "curve-reps-0", "no-alpha",
         "curve-reps-true", "curve-n-neg", "curve-n-float", "risk-m-true", "risk-m-2.5", "profile-m-2.5",
         "level-k-neg", "level-k-1.5", "level-reps-1.5", "dist-d-1.5", "dist-d-0", "config-d-true",
         "config-d-2.0"],
)
def test_a_malformed_risk_argument_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("m, message", [
    (0, "m must be >= 1"),
    (-1, "m must be >= 1"),
    (True, "m must be an integer, not a bool"),
    (2.5, "m must be an integer, got 2.5"),
])
def test_risk_curve_refuses_a_bad_m_before_it_trains(monkeypatch, m, message):
    from celltree import risklab

    builds, build = [], risklab.build_tree
    monkeypatch.setattr(risklab, "build_tree", lambda *args: builds.append(args) or build(*args))
    with pytest.raises(ValueError, match=message):
        risk_curve("randomized", _D_LIN, [20], 1, m, 0)
    assert builds == []


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


def test_risk_curve_rows_carry_the_configs_floats(tmp_path):
    dist = get_distribution("d-lin", d=1)
    cases = (("randomized", None, np.float64(0.5), ""), ("lookahead", np.float64(0.25), np.float32(0.25), "0.25"))
    for algo, alpha, beta, alpha_cell in cases:
        curve = risk_curve(algo, dist, n_grid=(50,), reps=1, m=200, seed=42, alpha=alpha, beta=beta)
        for row in curve.rows:
            assert type(row.beta) is float and (alpha is None or type(row.alpha) is float)
        out = tmp_path / "curve.csv"
        write_risk_csv(curve, out)
        with open(out, newline="") as fh:
            cells = {(row["alpha"], row["beta"]) for row in csv.DictReader(fh)}
        assert cells == {(alpha_cell, repr(float(beta)))}


@pytest.mark.parametrize("alpha", (np.float64(0.1), np.float32(0.25), Fraction(1, 10), 1))
def test_a_randomized_curve_writes_its_alpha_as_the_python_float(tmp_path, alpha):
    # the randomized rule reads no alpha, but the row carries it into the CSV
    curve = risk_curve("randomized", get_distribution("d-lin", d=1), [20], 1, 50, 0, alpha=alpha, beta=0.5)
    assert all(type(row.alpha) is float and row.alpha == float(alpha) for row in curve.rows)
    out = tmp_path / "curve.csv"
    write_risk_csv(curve, out)
    with open(out, newline="") as fh:
        assert {row["alpha"] for row in csv.DictReader(fh)} == {repr(float(alpha))}


@pytest.mark.parametrize("alpha", (True, "0.1", Decimal("0.1"), 10**400), ids=("bool", "str", "decimal", "1e400"))
def test_a_randomized_curve_refuses_an_alpha_that_is_no_float_before_it_trains(monkeypatch, alpha):
    from celltree import risklab

    monkeypatch.setattr(risklab, "build_tree", lambda *args: pytest.fail("a tree was trained"))
    with pytest.raises(ValueError, match="alpha must be a real number"):
        risk_curve("randomized", get_distribution("d-lin", d=1), [20], 1, 50, 0, alpha=alpha, beta=0.5)


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
