import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celltree import (
    BuildTrace,
    CellRng,
    CellTask,
    Dataset,
    Leaf,
    LookaheadConfig,
    PartitionTree,
    RandomizedConfig,
    audit_autonomy,
    build_ensemble,
    build_lookahead,
    build_randomized,
    choose_dimension,
    classify,
    decide_stop,
    derive_child_seed,
    ensemble_classify,
    phi,
    randomized_decision,
    run_cells,
    serialize_tree,
    tree_stats,
    validate_tree,
)
from conftest import make_dataset

# frozen expected values for the stop probability (natural log)
PHI_3_HALF = 0.9540645820000013
PHI_1E6_HALF = 0.2690397993802069


def test_phi_small_cells_always_stop():
    for n in (0, 1, 2):
        assert phi(n, 0.2) == 1.0
        assert phi(n, 0.9) == 1.0
    with pytest.raises(ValueError, match="n must be >= 0"):
        phi(-1, 0.5)


def test_phi_frozen_values():
    assert phi(3, 0.5) == pytest.approx(PHI_3_HALF, abs=1e-12)
    assert phi(10**6, 0.5) == pytest.approx(PHI_1E6_HALF, abs=1e-12)


def test_phi_matches_direct_formula():
    for n, beta in ((5, 0.25), (100, 0.5), (12345, 0.75)):
        assert phi(n, beta) == 1.0 / math.log(n) ** beta


@given(st.integers(0, 10**7), st.floats(0.05, 0.95))
def test_phi_in_unit_interval(n, beta):
    assert 0.0 < phi(n, beta) <= 1.0


def test_phi_monotone_in_n_and_beta():
    betas = [0.2, 0.5, 0.8]
    ns = [3, 5, 10, 100, 10**4, 10**6]
    for beta in betas:
        vals = [phi(n, beta) for n in ns]
        assert vals == sorted(vals, reverse=True)  # bigger cells stop less
    # for n >= 3, ln n > 1, so a larger beta gives a *smaller* stop
    # probability, hence deeper trees
    for n in ns:
        vals = [phi(n, b) for b in betas]
        assert vals == sorted(vals, reverse=True)


def test_decide_stop_examples():
    assert decide_stop(10**6, 0.01, 0.5) is True
    assert decide_stop(10**6, 0.5, 0.5) is False
    assert decide_stop(10**6, PHI_1E6_HALF, 0.5) is True  # boundary stops
    assert decide_stop(2, 0.999999, 0.5) is True


def test_config_validation():
    with pytest.raises(ValueError):
        RandomizedConfig(beta=0.0)
    with pytest.raises(ValueError):
        RandomizedConfig(beta=1.0)
    RandomizedConfig(beta=0.5)


def test_choose_dimension_d1_constant():
    rng = CellRng(123)
    assert all(choose_dimension(1, rng) == 0 for _ in range(50))


def test_choose_dimension_uniform_d4():
    rng = CellRng(99)
    draws = 100_000
    counts = np.bincount([choose_dimension(4, rng) for _ in range(draws)], minlength=4)
    freqs = counts / draws
    assert np.all(np.abs(freqs - 0.25) < 0.01)
    # chi-square against uniform: 3 dof, 16.27 is the 0.001 quantile
    chi2 = float(((counts - draws / 4) ** 2 / (draws / 4)).sum())
    assert chi2 < 16.27


def test_choose_dimension_deterministic():
    a = [choose_dimension(7, CellRng(5)) for _ in range(20)]
    b = [choose_dimension(7, CellRng(5)) for _ in range(20)]
    assert a == b
    with pytest.raises(ValueError):
        choose_dimension(0, CellRng(1))
    with pytest.raises(ValueError, match="d must be an integer, not a bool"):
        choose_dimension(True, CellRng(1))
    with pytest.raises(ValueError, match="d must be an integer, got 2.0"):
        choose_dimension(2.0, CellRng(1))


# ---------------------------------------------------------------------------
# building


def test_build_on_tiny_inputs():
    for n in (0, 1, 2):
        xs = np.linspace(0, 1, n).reshape(-1, 1) if n else np.empty((0, 1))
        ds = Dataset(xs, np.zeros(n, dtype=np.int8))
        tree = build_randomized(ds, RandomizedConfig(beta=0.5, seed=4))
        assert isinstance(tree.root, Leaf)  # phi forces a stop below 3 points
        assert classify(tree, [0.5]) == 0
        validate_tree(tree, n)


def test_build_deterministic_for_fixed_seed(rng):
    data = make_dataset(rng, 100, 2)
    docs = {
        serialize_tree(build_randomized(data, RandomizedConfig(beta=0.4, seed=11)))
        for _ in range(10)
    }
    assert len(docs) == 1


def test_build_varies_across_seeds(rng):
    data = make_dataset(rng, 500, 2, dup_prob=0.0)
    docs = {
        serialize_tree(build_randomized(data, RandomizedConfig(beta=0.4, seed=s)))
        for s in range(8)
    }
    assert len(docs) > 1


def test_conservation_fuzz(rng):
    for _ in range(60):
        n = int(rng.integers(0, 800))
        d = int(rng.integers(1, 4))
        data = make_dataset(rng, n, d)
        tree = build_randomized(data, RandomizedConfig(beta=0.3, seed=int(rng.integers(2**32))))
        stats = validate_tree(tree, n)
        assert stats.leaf_points + stats.eaten == n
        assert stats.eaten == stats.internals  # one pivot per binary cut


def test_all_identical_points_terminates():
    ds = Dataset(np.full((37, 2), 0.5), np.tile([0, 1], 37)[:37].astype(np.int8))
    tree = build_randomized(ds, RandomizedConfig(beta=0.2, seed=3))
    validate_tree(tree, 37)
    assert classify(tree, [0.5, 0.5]) in (0, 1)


def test_cell_autonomy_subtree_rebuild(rng):
    """Rebuilding any traced cell from its view and seed, in isolation,
    reproduces the serialized subtree."""
    data = make_dataset(rng, 300, 2, dup_prob=0.5)
    config = RandomizedConfig(beta=0.3, seed=21)
    trace = BuildTrace()
    tree = build_randomized(data, config, trace=trace)

    def subtree_at(node, path):
        for step in path:
            node = node.children[step]
        return node

    decide = randomized_decision(config.beta)
    for record in trace.records[:: max(1, len(trace.records) // 12)]:
        path = [int(tok) for tok in record.cell_id.split(".")[1:]]
        original = subtree_at(tree.root, path)
        view = data.full_view().subset(np.array(record.view_indices, dtype=np.int64))
        rebuilt = run_cells(CellTask(view=view.detach(), seed=record.seed), decide)
        wrap = lambda node: serialize_tree(
            PartitionTree(root=node, d=2, mode="binary", config={})
        )
        assert wrap(rebuilt) == wrap(original)


def test_audit_passes_on_randomized_build(rng):
    data = make_dataset(rng, 400, 2)
    config = RandomizedConfig(beta=0.3, seed=8)
    trace = BuildTrace()
    build_randomized(data, config, trace=trace)
    report = audit_autonomy(trace, data, randomized_decision(config.beta), sample=10, seed=1)
    assert report.ok, report.failures


def test_depth_tail_bound_small(rng):
    # proof-style tail bound with Monte Carlo slack, smaller than the
    # acceptance version: P{depth >= 4 (ln n)^0.5} <= e^-4 + 3 SE
    n, beta, trees, queries = 2000, 0.5, 40, 50
    dist_threshold = 4.0 * math.log(n) ** 0.5
    exceed = total = 0
    for t in range(trees):
        data = make_dataset(np.random.default_rng(1000 + t), n, 1, dup_prob=0.0)
        tree = build_randomized(data, RandomizedConfig(beta=beta, seed=t))
        from celltree import route_depths

        depths = route_depths(tree, np.random.default_rng(t).random((queries, 1)))
        exceed += int((depths >= dist_threshold).sum())
        total += queries
    bound = math.exp(-dist_threshold * phi(n, beta))
    se = math.sqrt(bound * (1 - bound) / total)
    assert exceed / total <= bound + 3 * se


# ---------------------------------------------------------------------------
# ensembles


def _constant_tree(label):
    return PartitionTree(
        root=Leaf(1 - label, label), d=1, mode="binary", config={"algo": "randomized"}
    )


def test_ensemble_single_member_equals_tree(rng):
    data = make_dataset(rng, 200, 1)
    config = RandomizedConfig(beta=0.4, seed=17)
    members = build_ensemble(data, config, t=1)
    assert len(members) == 1
    X = rng.random((100, 1))
    for x in X:
        assert ensemble_classify(members, x) == classify(members[0], x)


def test_ensemble_majority_and_tie():
    assert ensemble_classify([_constant_tree(1), _constant_tree(1), _constant_tree(0)], [0.1]) == 1
    assert ensemble_classify([_constant_tree(1), _constant_tree(0)], [0.1]) == 0  # tie to 0
    with pytest.raises(ValueError):
        ensemble_classify([], [0.1])


def test_ensemble_members_differ(rng):
    data = make_dataset(rng, 600, 2, dup_prob=0.0)
    members = build_ensemble(data, RandomizedConfig(beta=0.4, seed=2), t=5)
    assert len({serialize_tree(t) for t in members}) > 1


@pytest.mark.parametrize("t", (True, np.True_, 2.0, "2", None))
def test_an_ensemble_size_that_is_no_integer_is_refused(rng, t):
    data = make_dataset(rng, 50, 1)
    with pytest.raises(ValueError, match="t must be an integer"):
        build_ensemble(data, RandomizedConfig(beta=0.5), t=t)
    assert len(build_ensemble(data, RandomizedConfig(beta=0.5), t=np.int64(2))) == 2


@pytest.mark.parametrize("t", (0, -1))
def test_an_ensemble_size_below_one_is_refused(rng, t):
    with pytest.raises(ValueError, match="t must be >= 1"):
        build_ensemble(make_dataset(rng, 50, 1), RandomizedConfig(beta=0.5), t=t)


# ---------------------------------------------------------------------------
# the untraced build against the traced one, which decides every cell alone

EDGE_SEEDS = (-1, 0, 2**63, 2**64 - 1, 2**64 + 3)


def _differential_data(n: int, d: int, grid: bool, data_seed: int) -> Dataset:
    rng = np.random.default_rng(data_seed)
    xs = rng.random((n, d))
    if grid:
        xs = np.floor(xs * 4) / 4  # four levels per axis: ties are the common case
    return Dataset(xs, (rng.random(n) < 0.4).astype(np.int8))


def _assert_untraced_matches_traced(data: Dataset, config: RandomizedConfig, workers: int):
    untraced = serialize_tree(build_randomized(data, config, workers=workers))
    traced = serialize_tree(build_randomized(data, config, trace=BuildTrace()))
    assert untraced == traced


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 3),
    grid=st.booleans(),
    n=st.one_of(st.integers(0, 600), st.integers(600, 5_000)),
    beta=st.floats(0.05, 0.99),
    seed=st.sampled_from(EDGE_SEEDS),
    workers=st.sampled_from((1, 2)),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_untraced_build_matches_traced_build(d, grid, n, beta, seed, workers, data_seed):
    data = _differential_data(n, d, grid, data_seed)
    _assert_untraced_matches_traced(data, RandomizedConfig(beta=beta, seed=seed), workers)


@pytest.mark.parametrize("workers", (1, 2))
def test_untraced_build_matches_traced_build_from_a_small_root(workers):
    # 300 points: a shallow build of small cells
    data = _differential_data(300, 2, True, 300)
    _assert_untraced_matches_traced(data, RandomizedConfig(beta=0.5, seed=-1), workers)


# ---------------------------------------------------------------------------
# the generation kernel against the per-cell path it replaces

DRAW_SEEDS = (0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15 - 1)


@pytest.mark.parametrize("d", (1, 2, 3, 255))
def test_vectorized_draws_match_cell_rng(d):
    from celltree.randomized import _DRAWS, _draws
    from celltree.runtime import _child_seeds, _splitmix64s

    seeds = np.array(DRAW_SEEDS, dtype=np.uint64)
    u, dims = _draws(_splitmix64s(seeds[:, None] + _DRAWS), d)
    for seed, got_u, got_dim in zip(DRAW_SEEDS, u.tolist(), dims.tolist()):
        rng = CellRng(seed)
        assert got_u == rng.uniform()
        assert got_dim == rng.randint(d)
    for arity in (2, 4, 8):
        want = [derive_child_seed(s, j) for s in DRAW_SEEDS for j in range(arity)]
        assert _child_seeds(seeds, arity).tolist() == want


@pytest.mark.parametrize("d", (1, 2, 3, 5))
@pytest.mark.parametrize("seed", (-1, 0, 2**63))
def test_kernel_from_the_root_reproduces_the_per_cell_build(d, seed):
    beta = 0.99
    data = _differential_data(3_000, d, True, 40 + d)
    reference = run_cells(CellTask(view=data.full_view(), seed=seed), randomized_decision(beta))
    kernel = build_randomized(data, RandomizedConfig(beta=beta, seed=seed)).root
    assert tree_stats(PartitionTree(reference, d, "binary", {})).internals > 50
    # repr tells a numpy integer or float from the Python one the writer needs
    assert repr(kernel) == repr(reference)


def _per_cell_build(data: Dataset, config: RandomizedConfig, trace: BuildTrace) -> PartitionTree:
    """The per-cell ``run_cells`` reference, wrapped as ``build_randomized``
    wraps the kernel's records."""
    node = run_cells(CellTask(data.full_view(), config.seed), randomized_decision(config.beta), trace=trace)
    return PartitionTree(root=node, d=data.d, mode="binary", config={
        "algo": "randomized", "beta": config.beta, "seed": config.seed, "n": data.n})


@pytest.mark.parametrize("n", (300, 3_000))  # a shallow and a deeper build, both from the root
@pytest.mark.parametrize("d", (1, 2, 3, 5))
@pytest.mark.parametrize("seed", (-1, 0, 2**63))
def test_a_traced_build_records_what_the_per_cell_build_records(n, d, seed):
    data = _differential_data(n, d, True, 70 + d)
    config = RandomizedConfig(beta=0.99, seed=seed)
    built, reference = BuildTrace(), BuildTrace()
    doc = serialize_tree(build_randomized(data, config, trace=built))
    assert doc == serialize_tree(_per_cell_build(data, config, reference))
    assert built.lines() == reference.lines()
    assert [r.seed for r in built.records] == [r.seed for r in reference.records]
    assert built.records[0].seed == seed
    for got, want in zip(built.records, reference.records):
        assert got.view_indices.dtype == np.int64 and not got.view_indices.flags.writeable
        assert np.array_equal(got.view_indices, want.view_indices)
    report = audit_autonomy(built, data, randomized_decision(0.99), sample=len(built.records))
    assert report.ok and report.checked == len(built.records), report.failures


# ---------------------------------------------------------------------------
# the padded-row kernel: every build runs it from the root


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 400),
    d=st.integers(1, 4),
    beta=st.floats(0.05, 0.99),
    seed=st.sampled_from((-1, 0, 2**63, 2**64 - 1)),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_kernel_build_matches_the_per_cell_build(n, d, beta, seed, data_seed):
    data = _differential_data(n, d, True, data_seed)  # a grid: ties are the common case
    config = RandomizedConfig(beta=beta, seed=seed)
    built, reference = BuildTrace(), BuildTrace()
    doc = serialize_tree(build_randomized(data, config, trace=built))
    assert doc == serialize_tree(_per_cell_build(data, config, reference))
    assert doc == serialize_tree(build_randomized(data, config))
    assert built.lines() == reference.lines()


@pytest.mark.parametrize("traced", (False, True))
def test_the_root_view_indices_are_freed_before_the_first_cut(monkeypatch, traced):
    import weakref

    from celltree import median

    data = _differential_data(3_000, 2, True, 5)
    full_view, cut_rows = Dataset.full_view, median._cut_rows
    roots, alive = [], []

    def tracked_full_view(self):
        view = full_view(self)
        roots.append(weakref.ref(view.indices))
        return view

    def tracked_cut_rows(*args):
        alive.append([root() is not None for root in roots])
        return cut_rows(*args)

    monkeypatch.setattr(Dataset, "full_view", tracked_full_view)
    monkeypatch.setattr(median, "_cut_rows", tracked_cut_rows)
    build_randomized(data, RandomizedConfig(beta=0.99, seed=0), trace=BuildTrace() if traced else None)
    assert len(roots) == 1 and len(alive) > 5
    assert alive[0] == [False]


def test_wide_gather_indices_give_the_same_build(monkeypatch):
    # from d * n >= 2^31 on, ids and gather indices are int64; force that
    # here, in the root's id matrix and in the kernel's flat gather index
    from celltree import median

    data = _differential_data(3_000, 3, True, 5)
    config = RandomizedConfig(beta=0.99, seed=2**63)
    narrow, wide = BuildTrace(), BuildTrace()
    doc = serialize_tree(build_randomized(data, config, trace=narrow))
    monkeypatch.setattr(median, "_index_dtype", lambda n: np.int64)
    assert serialize_tree(build_randomized(data, config, trace=wide)) == doc
    assert wide.lines() == narrow.lines()


@pytest.mark.parametrize("d", (1, 2, 3))
def test_an_untraced_build_cuts_dimension_0_by_position(monkeypatch, d):
    # storage ids are dimension 0's ranks: an untraced build, randomized or
    # lookahead, cuts its dimension-0 rows by position and sends the rank
    # kernel one dimension a call; a traced build, whose ids are dataset
    # indices, sends it dimension 0 too, and both give the same document
    from celltree import median

    data = _differential_data(3_000, d, True, 9 + d)
    dims: list = []

    def recorded(cells, kept, dim, table, cut_rows=median._cut_rows):
        dims.append(dim)
        return cut_rows(cells, kept, dim, table)

    monkeypatch.setattr(median, "_cut_rows", recorded)
    for build, config, calls, records in ((build_randomized, RandomizedConfig(beta=0.99, seed=11), 5, 100),
                                          (build_lookahead, LookaheadConfig(0.3 / d, 0.2, d, seed=11), 0, 0)):
        dims.clear()
        untraced = serialize_tree(build(data, config))
        assert all(np.ndim(dim) == 0 and 0 < dim < d for dim in dims)
        assert len(dims) > calls or d == 1
        dims.clear()
        traced = BuildTrace()
        assert serialize_tree(build(data, config, trace=traced)) == untraced
        assert all(np.ndim(dim) == 0 for dim in dims) and 0 in dims and len(traced.records) > records


@pytest.mark.parametrize("storage", (False, True))
def test_a_generation_cut_a_dimension_at_a_time_is_each_row_cut_on_its_own(storage):
    # rows of 0 to 500 points, some not splitting, each in its own
    # dimension: every cut row's pivot and children are those of a one-row
    # median._cut call, in row order
    from celltree import median
    from celltree.randomized import _cut

    data = _differential_data(1_506, 3, True, 6)
    table = data._storage[1] if storage else data._rank_table
    sizes = np.array([0, 1, 2, 3, 500, 499, 500, 1])
    cells = np.split(np.random.default_rng(8).permutation(1_506), np.cumsum(sizes)[:-1])
    matrix = np.zeros((8, 500), dtype=np.int32)  # filler id 0
    for row, c in zip(matrix, cells):
        row[:c.size] = np.sort(c)
    split = sizes >= 3
    dims = np.array([1, 0, 2, 0, 1, 2, 0, 1])
    pivots, children = _cut(matrix, sizes, split, dims, table)
    assert pivots.shape == (4,) and children.shape[0] == 8
    for i, at in enumerate(np.flatnonzero(split).tolist()):
        want_pivot, want = median._cut(matrix[at:at + 1], sizes[at:at + 1], int(dims[at]), table)
        assert pivots[i] == want_pivot[0]
        for got, wanted, m in zip(children[2 * i:2 * i + 2], want, ((sizes[at] - 1) // 2, sizes[at] // 2)):
            assert np.array_equal(got[:m], wanted[:m])


@pytest.mark.parametrize("algo", ("randomized", "lookahead"))
def test_a_build_neither_sorts_nor_splits_cell_by_cell(monkeypatch, algo):
    from celltree import median, randomized

    data = _differential_data(3_000, 2, True, 3)
    if algo == "randomized":
        config, build, internals, records = RandomizedConfig(beta=0.99, seed=11), build_randomized, 100, 200
    else:  # a 4 x 4 checker on the grid: the root's children split again
        data = Dataset(data.xs, (np.floor(4 * data.xs).sum(axis=1) % 2).astype(np.int8))
        config, build, internals, records = LookaheadConfig(0.25, 0.2, 2, seed=11), build_lookahead, 4, 20
    data._rank_table, data._storage  # the presorts are the only argsorts a build may need

    def refuse(*args, **kwargs):
        raise AssertionError(f"a {algo} build sorted or split a single cell")

    monkeypatch.setattr(np, "sort", refuse)
    monkeypatch.setattr(np, "argsort", refuse)
    monkeypatch.setattr(randomized, "median_split", refuse)
    monkeypatch.setattr(median, "median_split", refuse)
    trace = BuildTrace()
    tree = build(data, config, trace=trace)
    assert tree_stats(build(data, config)).internals == tree_stats(tree).internals > internals
    assert len(trace.records) > records


# ---------------------------------------------------------------------------
# seeds and worker counts


def test_a_numpy_integer_seed_builds_as_the_python_int():
    data = _differential_data(2_000, 2, True, 8)
    for seed in (3, 2**63 + 5, 2**64 - 1):
        for numpy_seed in (np.int64(seed) if seed < 2**63 else np.uint64(seed), np.uint64(seed)):
            config = RandomizedConfig(beta=0.9, seed=numpy_seed)
            assert type(config.seed) is int and config.seed == seed
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no numpy overflow warning either
                doc = serialize_tree(build_randomized(data, config))
            reference = build_randomized(data, RandomizedConfig(beta=0.9, seed=seed))
            assert doc == serialize_tree(reference)


@pytest.mark.parametrize("seed", (1.5, 2.0, True, False, np.True_, "3", None))
def test_a_seed_that_is_no_integer_is_refused(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        RandomizedConfig(beta=0.5, seed=seed)


def test_a_numpy_or_rational_beta_builds_as_the_python_float():
    data = _differential_data(500, 2, True, 2)
    for beta in (np.float32(0.5), np.float64(0.3), Fraction(3, 10), 0.75):
        config = RandomizedConfig(beta=beta, seed=4)
        assert type(config.beta) is float and config.beta == float(beta)
        reference = RandomizedConfig(beta=float(beta), seed=4)
        assert serialize_tree(build_randomized(data, config)) == serialize_tree(build_randomized(data, reference))


@pytest.mark.parametrize("beta", (Decimal("0.5"), True, np.True_, "0.5", None, 0.5j))
def test_a_beta_that_is_no_real_number_is_refused(beta):
    with pytest.raises(ValueError, match="beta must be a real number"):
        RandomizedConfig(beta=beta)


@pytest.mark.parametrize("beta", (10**400, -10**400, Fraction(10**400, 3)), ids=("1e400", "-1e400", "1e400/3"))
def test_a_beta_beyond_the_float_range_is_refused(beta):
    with pytest.raises(ValueError, match="beta must be a real number within the float range"):
        RandomizedConfig(beta=beta)


@pytest.mark.parametrize("workers", (1.5, True, np.True_, "2"))
def test_a_worker_count_that_is_no_integer_is_refused(workers):
    data = _differential_data(50, 1, False, 1)
    with pytest.raises(ValueError, match="workers must be an integer"):
        build_randomized(data, RandomizedConfig(beta=0.5), workers=workers)
    with pytest.raises(ValueError, match="workers must be an integer"):
        run_cells(CellTask(data.full_view(), 0), randomized_decision(0.5), workers=workers)


@pytest.mark.parametrize("workers", (0, -1))
def test_a_worker_count_below_one_is_refused(workers):
    data = _differential_data(50, 1, False, 1)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        build_randomized(data, RandomizedConfig(beta=0.5), workers=workers)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        build_lookahead(data, LookaheadConfig(alpha=0.25, beta=0.2, d=1), workers=workers)


def test_a_numpy_integer_worker_count_is_accepted():
    data = _differential_data(500, 2, True, 2)
    config = RandomizedConfig(beta=0.9, seed=1)
    assert serialize_tree(build_randomized(data, config, workers=np.int64(2))) == serialize_tree(
        build_randomized(data, config))
