import dataclasses
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_lookahead as naive
from celltree import (
    AdmissibilityError,
    BuildTrace,
    CellTask,
    DataView,
    Dataset,
    Internal,
    Leaf,
    LookaheadConfig,
    PartitionTree,
    SplitDecision,
    audit_autonomy,
    build_full_tree,
    build_lookahead,
    classify,
    decide_stop_lookahead,
    empirical_error,
    k_plus,
    lookahead,
    lookahead_error,
    median,
    run_cells,
    serialize_tree,
    validate_tree,
)
from celltree.lookahead import lookahead_decision
from conftest import make_dataset, tree_shape


def _view(values, labels):
    xs = np.asarray(values, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs.reshape(-1, 1)
    return Dataset(xs, np.asarray(labels, dtype=np.int8)).full_view()


# ---------------------------------------------------------------------------
# the three scalar quantities


def test_empirical_error_examples():
    v = _view(np.linspace(0, 1, 8), [1, 1, 1, 0, 0, 0, 0, 0])
    assert empirical_error(v) == 3 / 8
    assert empirical_error(_view([], [])) == 0.0  # 0/0 convention
    assert empirical_error(_view([0.1, 0.2], [1, 1])) == 0.0  # pure cell


@settings(max_examples=100)
@given(st.lists(st.integers(0, 1), min_size=0, max_size=50))
def test_empirical_error_range(labels):
    v = _view(np.arange(len(labels), dtype=float), labels)
    assert 0.0 <= empirical_error(v) <= 0.5


def test_k_plus_examples():
    assert k_plus(1023, 0.3) == 3
    assert k_plus(1023, 0.1) == 1
    assert k_plus(0, 0.5) == 0
    assert k_plus(2, 0.1) == 0
    with pytest.raises(ValueError):
        k_plus(-1, 0.1)
    with pytest.raises(ValueError):
        k_plus(10, 0.0)
    for alpha in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            k_plus(10, alpha)


@given(st.integers(0, 10**6), st.floats(0.01, 0.99))
def test_k_plus_monotone_and_bounded(n, alpha):
    k = k_plus(n, alpha)
    assert 0 <= k <= math.log2(n + 1)
    assert k <= k_plus(n + 1, alpha)


def test_lookahead_error_k0_is_identity(rng):
    for _ in range(10):
        data = make_dataset(rng, int(rng.integers(1, 100)), 2)
        v = data.full_view()
        assert lookahead_error(v, 0) == empirical_error(v)


def test_lookahead_error_hand_example():
    # 10 points in one dimension; after one median cut the low cell holds
    # 4 points with one 1, the high cell 5 points with two 1s:
    # (1/4)(4/10) + (2/5)(5/10) = 0.3
    values = [i / 10 for i in range(1, 11)]
    labels = [1, 0, 0, 0, 0, 0, 1, 1, 0, 0]
    v = _view(values, labels)
    assert lookahead_error(v, 1) == pytest.approx(0.3, abs=1e-12)
    assert empirical_error(v) == 3 / 10


@pytest.mark.parametrize(
    "k, message",
    [
        (-1, "k must be >= 0"),
        (2.5, "k must be an integer, got 2.5"),
        (True, "k must be an integer, not a bool"),
        (np.True_, "k must be an integer"),
    ],
)
def test_a_level_count_that_is_no_level_count_is_refused(k, message):
    view = _view(np.linspace(0, 1, 10), [0, 1] * 5)
    for grow in (lookahead_error, build_full_tree):
        with pytest.raises(ValueError, match=message):
            grow(view, k)
    assert lookahead_error(view, np.int64(2)) == lookahead_error(view, 2)


def test_lookahead_error_empty_view():
    assert lookahead_error(_view([], []), 3) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lookahead_error_bounds_fuzz(data):
    """Offspring error is at most the cell error plus the pivot-loss term
    2^{dk}/n, and grows by at most 2^{dk'}/n between horizons k <= k'."""
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    d = int(rng.integers(1, 3))
    ds = make_dataset(rng, n, d)
    v = ds.full_view()
    k = data.draw(st.integers(0, 3))
    k2 = data.draw(st.integers(k, 3))
    base = empirical_error(v)
    lk = lookahead_error(v, k)
    lk2 = lookahead_error(v, k2)
    assert 0.0 <= lk <= 0.5
    assert lk <= base + (1 << (d * k)) / n + 1e-12
    assert lk2 <= lk + (1 << (d * k2)) / n + 1e-12
    # bit for bit the naive reference's, also where a level runs out of points
    xs, ys = ds.xs.tolist(), ds.ys.tolist()
    assert (lk, lk2) == tuple(naive.look_error(xs, ys, d, list(range(n)), h) for h in (k, k2))


def test_lookahead_error_matches_naive_where_levels_run_out():
    # cells of a few points under deep probes: levels cut empty cells, which
    # split into two empty cells and count no points
    rng = np.random.default_rng(8)
    for d in (1, 2, 3):
        for n in range(12):
            ds = make_dataset(rng, n, d)
            xs, ys = ds.xs.tolist(), ds.ys.tolist()
            for k in range(4):
                want = naive.look_error(xs, ys, d, list(range(n)), k)
                assert lookahead_error(ds.full_view(), k) == want, (d, n, k)


def test_pivot_loss_makes_offspring_error_exceed_cell_error():
    # the 2^{dk}/n slack is real: eaten pivots can push the weighted
    # offspring error above the cell's own error
    v = _view([0.1, 0.2, 0.3], [1, 0, 0])
    assert empirical_error(v) == 1 / 3
    # one cut eats the median; children are {0.1} (label 1) and {0.3} (label 0)
    assert lookahead_error(v, 1) == 0.0
    v2 = _view([0.1, 0.2, 0.3, 0.4], [0, 1, 1, 0])
    assert lookahead_error(v2, 2) <= empirical_error(v2) + (1 << 2) / 4


# ---------------------------------------------------------------------------
# stop rule and admissibility


def test_admissibility_constraint():
    LookaheadConfig(alpha=0.1, beta=0.2, d=2)  # margin 0.4
    with pytest.raises(AdmissibilityError):
        LookaheadConfig(alpha=0.3, beta=0.3, d=2)
    with pytest.raises(AdmissibilityError):
        LookaheadConfig(alpha=0.5, beta=0.25, d=1)  # margin exactly 0
    with pytest.raises(AdmissibilityError):
        LookaheadConfig(alpha=0.0, beta=0.2, d=1)
    with pytest.raises(AdmissibilityError):
        LookaheadConfig(alpha=0.1, beta=-0.1, d=1)
    with pytest.raises(ValueError):
        LookaheadConfig(alpha=0.1, beta=0.2, d=0)


def test_stop_on_empty_and_singleton():
    cfg = LookaheadConfig(alpha=0.3, beta=0.2, d=1)
    assert decide_stop_lookahead(_view([], []), cfg) is True
    assert decide_stop_lookahead(_view([0.4], [1]), cfg) is True


def test_stop_on_pure_cell():
    cfg = LookaheadConfig(alpha=0.4, beta=0.25, d=1)
    v = _view(np.linspace(0, 1, 500), [1] * 500)
    assert decide_stop_lookahead(v, cfg) is True


def test_stop_on_alternating_noise():
    # labels alternate along the axis: no split horizon can improve the
    # error, so the gap is tiny and the cell stops
    n = 1000
    values = np.linspace(0, 1, n)
    labels = np.arange(n) % 2
    cfg = LookaheadConfig(alpha=0.4, beta=0.25, d=1)
    assert decide_stop_lookahead(_view(values, labels), cfg) is True


def test_split_on_separable_cell():
    n = 1000
    values = np.linspace(0, 1, n)
    labels = (values > 0.5).astype(int)
    cfg = LookaheadConfig(alpha=0.4, beta=0.25, d=1)
    assert decide_stop_lookahead(_view(values, labels), cfg) is False


def test_threshold_shrinks_with_beta():
    n = 1000
    values = np.linspace(0, 1, n)
    # a modest signal: first quarter flipped
    labels = ((values > 0.25) & (values < 0.5)).astype(int)
    v = _view(values, labels)
    stops = [
        decide_stop_lookahead(v, LookaheadConfig(alpha=0.2, beta=b, d=1))
        for b in (0.05, 0.39)
    ]
    # same horizon (k+ depends only on alpha), smaller threshold at larger
    # beta can only turn stop into split
    assert stops[0] >= stops[1]


def test_locality_detached_view_same_decision(rng):
    cfg = LookaheadConfig(alpha=0.25, beta=0.2, d=2)
    for _ in range(25):
        data = make_dataset(rng, int(rng.integers(1, 300)), 2, dup_prob=0.5)
        idx = np.sort(
            rng.choice(data.n, size=int(rng.integers(1, data.n + 1)), replace=False)
        ).astype(np.int64)
        v = data.full_view().subset(idx)
        assert decide_stop_lookahead(v, cfg) == decide_stop_lookahead(v.detach(), cfg)


# ---------------------------------------------------------------------------
# building


def test_build_single_leaf_when_no_signal(rng):
    data = make_dataset(rng, 500, 2)  # noise labels
    tree = build_lookahead(data, LookaheadConfig(alpha=0.1, beta=0.2, d=2, seed=0))
    assert isinstance(tree.root, Leaf)
    validate_tree(tree, 500)


def test_build_commits_full_levels():
    n = 5000
    rng = np.random.default_rng(7)
    xs = rng.random((n, 2))
    ys = (xs[:, 0] > 0.5).astype(np.int8)
    tree = build_lookahead(Dataset(xs, ys), LookaheadConfig(alpha=0.1, beta=0.2, d=2, seed=0))
    assert isinstance(tree.root, Internal)
    assert len(tree.root.children) == 4
    assert len(tree.root.splits) == 3
    assert len(tree.root.eaten) == 3
    validate_tree(tree, n)


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 3),
    n=st.integers(0, 4_000),
    shape=st.tuples(st.floats(0.05, 0.95), st.floats(0.5, 0.95)),
    seed=st.sampled_from((-1, 0, 2**63, 2**64 - 1)),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_kernel_build_matches_the_per_cell_build(d, n, shape, seed, data_seed):
    # alpha and beta as shares of their admissible ranges; a beta in the
    # lower half of its range stops almost every root at n <= 4,000
    alpha = shape[0] / d
    beta = shape[1] * (1.0 - d * alpha) / 2.0
    rng = np.random.default_rng(data_seed)
    xs = np.floor(rng.random((n, d)) * 8) / 8  # a grid: ties are the common case
    ys = (np.floor(xs * 4).sum(axis=1) % 2 == 1) ^ (rng.random(n) < 0.1)
    data, config = Dataset(xs, ys.astype(np.int8)), LookaheadConfig(alpha=alpha, beta=beta, d=d, seed=seed)
    built, reference = BuildTrace(), BuildTrace()
    doc = serialize_tree(build_lookahead(data, config, trace=built))
    assert doc == serialize_tree(build_lookahead(data, config))
    # the per-cell run_cells reference, wrapped as build_lookahead wraps the kernel's records
    node = run_cells(CellTask(data.full_view(), seed), lookahead_decision(config), trace=reference)
    assert doc == serialize_tree(PartitionTree(root=node, d=d, mode="full", config={
        "algo": "lookahead", "alpha": alpha, "beta": beta, "seed": seed, "n": n}))
    assert built.lines() == reference.lines()
    for got, want in zip(built.records, reference.records):
        assert got.view_indices.dtype == np.int64 and not got.view_indices.flags.writeable
        assert np.array_equal(got.view_indices, want.view_indices)


def test_build_rejects_dimension_mismatch(rng):
    data = make_dataset(rng, 50, 2)
    with pytest.raises(ValueError):
        build_lookahead(data, LookaheadConfig(alpha=0.1, beta=0.2, d=3, seed=0))


def test_build_is_deterministic_and_seed_independent(rng):
    # the rule draws no randomness, so any seed gives the same partition
    xs = rng.random((2000, 1))
    ys = (xs[:, 0] > 0.4).astype(np.int8)
    data = Dataset(xs, ys)
    t1 = build_lookahead(data, LookaheadConfig(alpha=0.3, beta=0.2, d=1, seed=1))
    t2 = build_lookahead(data, LookaheadConfig(alpha=0.3, beta=0.2, d=1, seed=999))
    assert tree_shape(t1.root) == tree_shape(t2.root)


def test_audit_passes_on_lookahead_build(rng):
    xs = rng.random((1500, 2))
    ys = (xs[:, 1] > 0.5).astype(np.int8)
    data = Dataset(xs, ys)
    cfg = LookaheadConfig(alpha=0.2, beta=0.2, d=2, seed=5)
    trace = BuildTrace()
    build_lookahead(data, cfg, trace=trace)
    report = audit_autonomy(trace, data, lookahead_decision(cfg), sample=10, seed=2)
    assert report.ok, report.failures


def test_matches_naive_reference_spot_checks(rng):
    # the exhaustive fuzz equivalence lives in the acceptance suite; keep a
    # handful of structured cases here for fast feedback
    cases = []
    xs = rng.random((150, 1))
    cases.append((xs, (xs[:, 0] > 0.3).astype(int), 0.45, 0.2))
    xs = rng.random((120, 2))
    cases.append((xs, (np.floor(2 * xs[:, 0]) + np.floor(2 * xs[:, 1]) == 1).astype(int), 0.3, 0.15))
    xs = np.round(rng.random((90, 2)) * 4) / 4  # heavy duplicates
    cases.append((xs, rng.integers(0, 2, 90), 0.3, 0.15))
    for xs, ys, alpha, beta in cases:
        data = Dataset(xs, np.asarray(ys, dtype=np.int8))
        tree = build_lookahead(
            data, LookaheadConfig(alpha=alpha, beta=beta, d=xs.shape[1], seed=0)
        )
        reference = naive.build([tuple(row) for row in xs], [int(y) for y in ys], alpha, beta)
        assert tree_shape(tree.root) == reference


@pytest.mark.parametrize(
    "alpha, beta", [(math.nan, 0.2), (0.1, math.nan), (math.nan, math.nan)]
)
def test_admissibility_rejects_nan(alpha, beta):
    # every comparison with NaN is false, so the margin check alone lets it in
    with pytest.raises(AdmissibilityError, match="finite"):
        LookaheadConfig(alpha=alpha, beta=beta, d=2)


# ---------------------------------------------------------------------------
# the carried probe: a split cell hands each child its share of its probe

# (d, n, alpha, beta, checker cells per axis, coordinate grid or 0); in each
# case carried cells split again, and children both keep their parent's
# horizon (they grow one level) and lose one level (they grow none)
CARRIED_CASES = [
    (1, 2000, 0.45, 0.2, 16, 0),
    (1, 2000, 0.55, 0.2, 16, 0),
    (2, 3000, 0.28, 0.2, 8, 0),
    (2, 3000, 0.28, 0.2, 8, 64),
    (3, 6000, 0.2, 0.15, 4, 0),
]


def _checker_case(d, n, alpha, beta, cells, grid):
    rng = np.random.default_rng(1000 * d + n + grid)
    xs = rng.random((n, d))
    if grid:
        xs = np.floor(xs * grid) / grid
    ys = (np.floor(cells * xs).sum(axis=1) % 2).astype(np.int8)
    return Dataset(xs, ys), LookaheadConfig(alpha=alpha, beta=beta, d=d, seed=3)


@pytest.mark.parametrize("case", CARRIED_CASES)
def test_carried_probe_matches_naive_and_passes_a_full_audit(case):
    data, cfg = _checker_case(*case)
    trace = BuildTrace()
    tree = build_lookahead(data, cfg, trace=trace)
    reference = naive.build(data.xs.tolist(), data.ys.tolist(), cfg.alpha, cfg.beta)
    assert tree_shape(tree.root) == reference
    # every cell replays from scratch on a plain detached view
    report = audit_autonomy(trace, data, lookahead_decision(cfg), sample=len(trace.records))
    assert report.ok, report.failures
    assert report.checked == len(trace.records)
    by_id = {r.cell_id: r for r in trace.records}
    drops = {
        k_plus(by_id[r.parent_id].n, cfg.alpha) - k_plus(r.n, cfg.alpha)
        for r in trace.records
        if r.parent_id
    }
    assert drops == {0, 1}
    # a carried cell split, so its children took a share of a share
    assert any(r.parent_id and r.decision_fp.startswith("split") for r in trace.records)


@pytest.mark.parametrize("case", CARRIED_CASES)
def test_carried_probe_documents_do_not_depend_on_the_schedule(case):
    data, cfg = _checker_case(*case)
    tree = build_lookahead(data, cfg)
    doc = serialize_tree(tree)
    assert serialize_tree(build_lookahead(data, cfg, workers=2)) == doc
    for shuffle_seed in (1, 2):
        root = run_cells(
            CellTask(view=data.full_view(), seed=cfg.seed),
            lookahead_decision(cfg),
            workers=2,
            shuffle_seed=shuffle_seed,
        )
        assert serialize_tree(dataclasses.replace(tree, root=root)) == doc


@pytest.mark.parametrize("case", CARRIED_CASES)
def test_carried_share_serves_every_horizon(case):
    # the reference's root split hands its children plain views, whose
    # probes grow from scratch to the naive error at every horizon, inside
    # the root's probe and below it
    data, cfg = _checker_case(*case)
    split = lookahead_decision(cfg)(data.full_view(), cfg.seed)
    assert isinstance(split, SplitDecision)
    xs, ys = data.xs.tolist(), data.ys.tolist()
    depth = k_plus(data.n, cfg.alpha)
    for child in split.children:
        assert type(child) is DataView
        for k in range(depth + 2):
            assert lookahead_error(child, k) == naive.look_error(xs, ys, cfg.d, child.indices.tolist(), k)


def test_each_probe_level_is_grown_once(monkeypatch):
    d, *_ = case = CARRIED_CASES[2]
    data, cfg = _checker_case(*case)
    calls, grown = [], []
    grow = median._level

    def counted(cells, sizes, *args):
        calls.append(len(sizes))  # one level grown under each row
        grown.extend(tuple(row[:m].tolist()) for row, m in zip(cells, sizes.tolist()) if m)
        return grow(cells, sizes, *args)

    monkeypatch.setattr(median, "_level", counted)
    monkeypatch.setattr(lookahead, "_level", counted)
    trace = BuildTrace()
    build_lookahead(data, cfg, trace=trace)
    # a cell's probe starts at its share's depth (the root's at 0) and goes
    # down to its horizon
    depth, want, scratch = {}, 0, 0
    for r in trace.records:  # parents come before their children
        k = k_plus(r.n, cfg.alpha)
        shared = depth[r.parent_id] - 1 if r.parent_id else 0
        depth[r.cell_id] = max(k, shared)
        want += sum(1 << (d * i) for i in range(shared, depth[r.cell_id]))
        scratch += sum(1 << (d * i) for i in range(k)) + r.decision_fp.startswith("split")
    assert sum(calls) == want < scratch
    # no cell of the tree or of a probe is cut into a level twice, so no
    # split cuts its first level again
    assert len(grown) == len(set(grown))


def test_carried_share_is_freed_once_the_child_decides(monkeypatch):
    # the kernel copies the root's points into its first row, so the root
    # view's int64 indices are dead before the first level is grown
    import weakref

    data, cfg = _checker_case(*CARRIED_CASES[2])
    full_view, grow = Dataset.full_view, lookahead._level
    for trace in (None, BuildTrace()):
        roots, alive = [], []

        def tracked_full_view(self):
            view = full_view(self)
            roots.append(weakref.ref(view.indices))
            return view

        def tracked_level(*args):
            alive.append([root() is not None for root in roots])
            return grow(*args)

        monkeypatch.setattr(Dataset, "full_view", tracked_full_view)
        monkeypatch.setattr(lookahead, "_level", tracked_level)
        build_lookahead(data, cfg, trace=trace)
        assert len(roots) == 1 and len(alive) >= 4
        assert alive[0] == [False]


def test_a_build_where_no_cell_splits_takes_no_memory_of_size_two_to_the_d():
    # a split needs 2^d points or more; 10 points in d = 22 make one leaf,
    # and a heap-order dimension list of 2^22 - 1 entries alone is 32 MiB
    import tracemalloc

    d = 22
    data = Dataset(np.random.default_rng(0).random((10, d)), (np.arange(10) % 2).astype(np.int8))
    for trace in (None, BuildTrace()):
        tracemalloc.start()
        try:
            tree = build_lookahead(data, LookaheadConfig(0.5 / d, 0.1, d), trace=trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(tree.root, Leaf)
        assert peak < 1 << 20


def test_a_numpy_integer_seed_builds_as_the_python_int(rng):
    data = make_dataset(rng, 300, 2)
    doc = serialize_tree(build_lookahead(data, LookaheadConfig(alpha=0.25, beta=0.2, d=2, seed=3)))
    for seed in (np.int64(3), np.uint64(3)):
        config = LookaheadConfig(alpha=0.25, beta=0.2, d=2, seed=seed)
        assert type(config.seed) is int and config.seed == 3
        assert serialize_tree(build_lookahead(data, config)) == doc
    assert LookaheadConfig(alpha=0.25, beta=0.2, d=2, seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


@pytest.mark.parametrize("seed", (1.5, True, np.True_, "3", None))
def test_a_seed_that_is_no_integer_is_refused(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        LookaheadConfig(alpha=0.25, beta=0.2, d=2, seed=seed)


def test_numpy_or_rational_alpha_and_beta_build_as_python_floats(rng):
    data = make_dataset(rng, 300, 2)
    doc = serialize_tree(build_lookahead(data, LookaheadConfig(alpha=0.1, beta=0.2, d=2)))
    for alpha, beta in ((Fraction(1, 10), 0.2), (np.float64(0.1), np.float64(0.2)), (0.1, Fraction(1, 5))):
        config = LookaheadConfig(alpha=alpha, beta=beta, d=2)
        assert (type(config.alpha), type(config.beta)) == (float, float)
        assert serialize_tree(build_lookahead(data, config)) == doc


@pytest.mark.parametrize("name", ("alpha", "beta"))
@pytest.mark.parametrize("value", (10**400, -10**400, Fraction(10**400, 3)), ids=("1e400", "-1e400", "1e400/3"))
def test_an_alpha_or_beta_beyond_the_float_range_is_refused(name, value):
    given = dict(alpha=0.1, beta=0.2, d=2)
    given[name] = value
    with pytest.raises(AdmissibilityError, match=f"{name} must be a real number within the float range"):
        LookaheadConfig(**given)


@pytest.mark.parametrize("name", ("alpha", "beta"))
@pytest.mark.parametrize("value", (Decimal("0.1"), True, np.True_, "0.1", None))
def test_an_alpha_or_beta_that_is_no_real_number_is_refused(name, value):
    given = dict(alpha=0.1, beta=0.2, d=2)
    given[name] = value
    with pytest.raises(AdmissibilityError, match=f"{name} must be a real number"):
        LookaheadConfig(**given)
