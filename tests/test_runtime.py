import hashlib
import threading

import numpy as np
import pytest

from celltree import (
    BuildTrace,
    CellBuildError,
    CellRng,
    CellTask,
    Dataset,
    DataView,
    Leaf,
    LeafDecision,
    LookaheadConfig,
    PartitionTree,
    RandomizedConfig,
    SplitDecision,
    audit_autonomy,
    build_lookahead,
    build_randomized,
    derive_child_seed,
    deserialize_tree,
    median_split,
    randomized_decision,
    run_cells,
    save_csv,
    serialize_tree,
    splitmix64,
    tree_stats,
    validate_tree,
)
from celltree.cli import main
from celltree.lookahead import lookahead_decision
from celltree.median import median_split
from celltree.runtime import decision_fingerprint
from conftest import make_dataset


def test_splitmix_is_64bit_and_deterministic():
    out = [splitmix64(i) for i in range(100)]
    assert all(0 <= v < 2**64 for v in out)
    assert len(set(out)) == 100
    assert out == [splitmix64(i) for i in range(100)]


def test_derive_child_seed_no_collision_between_first_children():
    rng = np.random.default_rng(5)
    seeds = rng.integers(0, 2**63, size=1_000_000)
    clashes = sum(
        1 for s in seeds.tolist() if derive_child_seed(s, 0) == derive_child_seed(s, 1)
    )
    assert clashes == 0


def test_derive_child_seed_avalanche():
    # flipping the low bit of the parent moves the child seed far away
    a = derive_child_seed(0x1234, 3)
    b = derive_child_seed(0x1235, 3)
    assert bin(a ^ b).count("1") > 10


def test_cellrng_uniform_range_and_child_stream_quality():
    for child in range(5):
        rng = CellRng(derive_child_seed(987654321, child))
        draws = np.array([rng.uniform() for _ in range(10_000)])
        assert np.all((draws >= 0) & (draws < 1))
        assert abs(draws.mean() - 0.5) < 0.015


def test_cellrng_randint_validates():
    with pytest.raises(ValueError):
        CellRng(0).randint(0)


# ---------------------------------------------------------------------------
# run_cells


def test_run_cells_empty_root_is_single_leaf():
    data = Dataset.empty(2)
    node = run_cells(CellTask(view=data.full_view(), seed=1), randomized_decision(0.5))
    assert (node.count0, node.count1) == (0, 0)


def test_run_cells_same_tree_for_any_worker_count(rng):
    data = make_dataset(rng, 2000, 2, dup_prob=0.4)
    for decide, mode in (
        (randomized_decision(0.3), "binary"),
        (lookahead_decision(LookaheadConfig(alpha=0.2, beta=0.2, d=2)), "full"),
    ):
        docs = set()
        for workers in (1, 2, 8):
            node = run_cells(CellTask(view=data.full_view(), seed=42), decide, workers=workers)
            docs.add(serialize_tree(PartitionTree(root=node, d=2, mode=mode, config={})))
        assert len(docs) == 1


def test_run_cells_schedule_shuffle_does_not_change_tree(rng):
    data = make_dataset(rng, 1200, 1)
    decide = randomized_decision(0.4)
    base = run_cells(CellTask(view=data.full_view(), seed=9), decide, workers=4)
    for shuffle_seed in (1, 2, 3):
        node = run_cells(
            CellTask(view=data.full_view(), seed=9),
            decide,
            workers=4,
            shuffle_seed=shuffle_seed,
        )
        assert node == base


def test_trace_multiset_independent_of_schedule(rng):
    data = make_dataset(rng, 800, 2)
    decide = randomized_decision(0.35)

    def run(workers, shuffle_seed=None):
        trace = BuildTrace()
        run_cells(
            CellTask(view=data.full_view(), seed=3),
            decide,
            workers=workers,
            trace=trace,
            shuffle_seed=shuffle_seed,
        )
        return trace

    reference = run(1)
    multiset = sorted((r.n, r.decision_fp, r.input_hash) for r in reference.records)
    for trace in (run(2), run(8, shuffle_seed=5)):
        assert sorted((r.n, r.decision_fp, r.input_hash) for r in trace.records) == multiset


def test_work_conservation_tasks_equal_nodes(rng):
    data = make_dataset(rng, 700, 2)
    trace = BuildTrace()
    tree = build_randomized(data, RandomizedConfig(beta=0.3, seed=12), trace=trace)
    assert len(trace.records) == tree_stats(tree).nodes


def test_trace_lines_format(rng, tmp_path):
    data = make_dataset(rng, 40, 1)
    trace = BuildTrace()
    build_randomized(data, RandomizedConfig(beta=0.3, seed=12), trace=trace)
    lines = trace.lines()
    assert lines[0].split("\t")[0] == "r"  # root cell id
    for line in lines:
        cell_id, parent, n, decision, seed_fp, input_hash = line.split("\t")
        assert decision.startswith(("leaf:", "split:"))
        assert len(seed_fp) == 16
        int(n)
    # the written trace is its lines, each ended by a newline
    trace.write(tmp_path / "trace.tsv")
    assert (tmp_path / "trace.tsv").read_bytes() == "".join(f"{line}\n" for line in lines).encode()


def test_worker_error_carries_cell_size(rng):
    data = make_dataset(rng, 17, 1)

    def broken(view, seed):
        raise KeyError("boom")

    with pytest.raises(CellBuildError, match=r"N=17"):
        run_cells(CellTask(view=data.full_view(), seed=0), broken)


def test_worker_error_propagates_from_the_pool(rng):
    data = make_dataset(rng, 40, 1)

    def root_only(view, seed):
        if view.n < 40:
            raise KeyError("boom")
        cut = median_split(view, 0)
        return SplitDecision(((0, cut.threshold),), (cut.pivot_index,), (cut.low, cut.high))

    # both children fail; the first slice of the dispatch order reports
    with pytest.raises(CellBuildError, match=r"cell r\.0 \(N=19\)"):
        run_cells(CellTask(view=data.full_view(), seed=0), root_only, workers=2)


def test_no_thread_starts_at_any_worker_count(tmp_path, monkeypatch):
    """Builds run in one thread: ``workers`` is checked and changes nothing.

    The randomized build runs its generation kernel several generations
    deep, and the lookahead build splits below the root.
    """
    xs = np.random.default_rng(5).random((3000, 2))
    data = Dataset(xs, (xs.sum(axis=1) > 1).astype(np.int8))
    csv_path = tmp_path / "train.csv"
    save_csv(data, csv_path)
    builders = (
        lambda w: build_randomized(data, RandomizedConfig(beta=0.99, seed=4), workers=w),
        lambda w: build_lookahead(
            data, LookaheadConfig(alpha=0.25, beta=0.2, d=2, seed=4), workers=w
        ),
    )
    flags = {"randomized": ["--beta", "0.99"], "lookahead": ["--alpha", "0.25", "--beta", "0.2"]}

    def train(algo, workers):
        out = tmp_path / f"{algo}-w{workers}.json"
        argv = ["train", "--algo", algo, "--data", str(csv_path), "--out", str(out), "--seed", "4"]
        assert main(argv + flags[algo] + ["--workers", str(workers)]) == 0
        return out.read_text(encoding="utf-8")

    serial = [serialize_tree(build(1)) for build in builders]
    serial_cli = [train(algo, 1) for algo in flags]
    assert all(tree_stats(deserialize_tree(doc)).max_depth >= 2 for doc in serial + serial_cli)

    def refuse(self):
        raise AssertionError(f"a thread was started: {self!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    # 10**6 is far above any frontier width here; a thread pool would try to
    # start one thread per cell, so that value is passed only under the guard
    for workers in (8, 10**6):
        assert [serialize_tree(build(workers)) for build in builders] == serial
        assert [train(algo, workers) for algo in flags] == serial_cli


def test_run_cells_rejects_bad_worker_count(rng):
    data = make_dataset(rng, 10, 1)
    with pytest.raises(ValueError):
        run_cells(CellTask(view=data.full_view(), seed=0), randomized_decision(0.5), workers=0)


def test_run_cells_stores_a_stopping_cells_leaf_as_it_is():
    assert LeafDecision is Leaf
    leaf = Leaf(3, 4)
    data = Dataset.empty(1)
    assert run_cells(CellTask(view=data.full_view(), seed=0), lambda view, seed: leaf) is leaf


def test_run_cells_assembles_a_deep_chain(rng):
    """Each cell eats its lowest point as the pivot, with an empty low child
    and the rest high, so 3,000 points make a chain 2,999 levels deep."""
    n = 3000
    data = Dataset(rng.permutation(n).astype(np.float64).reshape(n, 1),
                   rng.integers(0, 2, size=n).astype(np.int8))

    def peel(view, seed):
        if view.n <= 1:
            return LeafDecision(*view.label_counts())
        lowest = int(np.argmin(view.coords(0)))
        return SplitDecision(
            splits=((0, float(view.coords(0)[lowest])),),
            eaten=(int(view.indices[lowest]),),
            children=(
                DataView(data, np.empty(0, dtype=np.int64)),
                DataView(data, np.delete(view.indices, lowest)),
            ),
        )

    node = run_cells(CellTask(view=data.full_view(), seed=0), peel)
    tree = PartitionTree(root=node, d=1, mode="binary", config={})
    assert tree_stats(tree).max_depth == n - 1
    validate_tree(tree, n)


# ---------------------------------------------------------------------------
# autonomy audit


def test_audit_detects_decision_reading_global_size(rng):
    """Negative control: leaf counts poisoned by the total training size,
    which a cell must not know.  The root cell is unobservable (its local
    size equals the global one) so the rule splits once to expose children."""
    data = make_dataset(rng, 300, 1)

    def cheating(view, seed):
        if view.n == view.dataset.n and view.n >= 2:
            cut = median_split(view, 0)
            return SplitDecision(
                ((0, cut.threshold),), (cut.pivot_index,), (cut.low, cut.high)
            )
        return LeafDecision(view.dataset.n - view.n, view.n)

    trace = BuildTrace()
    run_cells(CellTask(view=data.full_view(), seed=0), cheating, trace=trace)
    report = audit_autonomy(trace, data, cheating, sample=10, seed=0)
    assert not report.ok
    assert any("decision changed" in f for f in report.failures)


def test_audit_detects_stop_rule_reading_global_size(rng):
    data = make_dataset(rng, 500, 1, dup_prob=0.0)

    def cheating(view, seed):
        if view.dataset.n >= 400 and view.n >= 2:  # global-size backdoor
            cut = median_split(view, 0)
            return SplitDecision(
                ((0, cut.threshold),), (cut.pivot_index,), (cut.low, cut.high)
            )
        c0, c1 = view.label_counts()
        return LeafDecision(c0, c1)

    trace = BuildTrace()
    run_cells(CellTask(view=data.full_view(), seed=6), cheating, trace=trace)
    report = audit_autonomy(trace, data, cheating, sample=len(trace.records), seed=0)
    assert not report.ok


def test_audit_reports_a_replay_that_raises(rng):
    data = make_dataset(rng, 300, 1)
    decide = randomized_decision(0.99)

    def fragile(view, seed):  # works on the training data, raises on a detached copy
        if view.dataset is not data:
            raise RuntimeError("detached")
        return decide(view, seed)

    trace = BuildTrace()
    build_randomized(data, RandomizedConfig(beta=0.99, seed=5), trace=trace)
    assert len(trace.records) > 4
    report = audit_autonomy(trace, data, fragile, sample=4, seed=0)
    assert not report.ok and report.checked == 4
    assert len(report.failures) == 4
    assert all(": replay raised RuntimeError('detached')" in f for f in report.failures)


def test_audit_passes_both_builders(rng):
    data = make_dataset(rng, 900, 2, dup_prob=0.5)
    cfg = LookaheadConfig(alpha=0.2, beta=0.2, d=2, seed=0)
    for build, decide in (
        (lambda: build_randomized(data, RandomizedConfig(beta=0.3, seed=4), trace=trace),
         randomized_decision(0.3)),
        (lambda: build_lookahead(data, cfg, trace=trace), lookahead_decision(cfg)),
    ):
        trace = BuildTrace()
        build()
        report = audit_autonomy(trace, data, decide, sample=10, seed=3)
        assert report.ok, report.failures
        assert report.checked == min(10, len(trace.records))


@pytest.mark.parametrize(
    "sample, message",
    [
        (2.5, "sample must be an integer, got 2.5"),
        (True, "sample must be an integer, not a bool"),
        (-1, "sample must be >= 0"),
    ],
)
def test_an_audit_sample_that_is_no_count_is_refused(rng, sample, message):
    data = make_dataset(rng, 200, 1)
    trace = BuildTrace()
    build_randomized(data, RandomizedConfig(beta=0.5, seed=1), trace=trace)
    with pytest.raises(ValueError, match=message):
        audit_autonomy(trace, data, randomized_decision(0.5), sample=sample)
    assert audit_autonomy(trace, data, randomized_decision(0.5), sample=np.int64(0)).checked == 0


def test_decision_fingerprint_ignores_indices(rng):
    data = make_dataset(rng, 101, 1, dup_prob=0.0)
    decide = randomized_decision(0.2)
    view = data.full_view()
    original = decide(view, 77)
    detached = decide(view.detach(), 77)
    assert decision_fingerprint(original) == decision_fingerprint(detached)


def test_decision_fingerprint_spells_each_cut_and_child_size():
    data = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]))
    kids = tuple(DataView(data, ix) for ix in ([0], [1, 2], [], [3]))
    cuts = ((0, 0.5), (1, 2.25), (1, -1e-05))
    assert decision_fingerprint(SplitDecision(cuts, (), kids)) == \
        "split:dims=0,1,1:thr=0.5,2.25,-1e-05:sizes=1,2,0,1"
    assert decision_fingerprint(SplitDecision((), (), kids[:2])) == "split:dims=:thr=:sizes=1,2"
    assert decision_fingerprint(Leaf(3, 4)) == "leaf:3:4"


def _pinned_trace_data() -> Dataset:
    """3,000 points on a 1/64 grid (many ties), labels x1 > 0.5 with 20% flips."""
    rng = np.random.default_rng(7)
    xs = np.round(rng.random((3000, 2)) * 64) / 64
    ys = ((xs[:, 0] > 0.5) ^ (rng.random(3000) < 0.2)).astype(np.int8)
    return Dataset(xs, ys)


@pytest.mark.parametrize(
    "algo, records, digest",
    [
        ("randomized", 455, "779efdcfdf80c6ef6df5de0393d14070f33b98db24ff56043417a8e9742a32b0"),
        ("lookahead", 5, "54410411c7158aa96feb8d907ab5b334d6d604f88de562eb272a5179893b355f"),
    ],
)
def test_trace_lines_are_pinned(algo, records, digest):
    # the SHA-256 of every trace line, input hashes included, for one fixed build
    data = _pinned_trace_data()
    trace = BuildTrace()
    if algo == "randomized":
        build_randomized(data, RandomizedConfig(beta=0.99, seed=0), trace=trace)
    else:
        build_lookahead(data, LookaheadConfig(alpha=0.25, beta=0.2, d=2, seed=3), trace=trace)
    assert len(trace.records) == records
    assert hashlib.sha256("\n".join(trace.lines()).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the audit's one-pass input check


def _traced_build(n: int = 2_000):
    data = _pinned_trace_data()
    data = Dataset(data.xs[:n], data.ys[:n])
    trace = BuildTrace()
    build_randomized(data, RandomizedConfig(beta=0.99, seed=4), trace=trace)
    return data, trace


def _audit_all(trace, data, decide=None):
    decide = decide or randomized_decision(0.99)
    return audit_autonomy(trace, data, decide, sample=len(trace.records))


def test_the_audit_checks_each_records_size_against_its_view():
    import dataclasses

    data, trace = _traced_build()
    assert trace.records[0].n == 2_000 and _audit_all(trace, data).ok
    trace.records[0] = dataclasses.replace(trace.records[0], n=2_007)
    report = _audit_all(trace, data)
    assert not report.ok and report.failures == ("r: size mismatch",)


def test_tampered_input_hashes_are_reported_in_record_order():
    import dataclasses

    data, trace = _traced_build()
    for at in (120, 7, 61):
        trace.records[at] = dataclasses.replace(trace.records[at], input_hash="0" * 16)
    report = audit_autonomy(trace, data, randomized_decision(0.99), sample=3, seed=1)
    assert report.failures == tuple(
        f"{trace.records[at].cell_id}: input hash mismatch" for at in (7, 61, 120))


@pytest.mark.parametrize(
    "indices, message",
    [
        (lambda ix: ix[::-1].copy(), "indices must be strictly ascending"),
        (lambda ix: np.append(ix, 2_000), "index out of range"),
        (lambda ix: np.append(ix[1:], -1), "strictly ascending"),
        (lambda ix: ix.reshape(1, -1), "indices must be one-dimensional"),
        (lambda ix: ix.astype(np.float64) + 0.25, "indices must be integers, got dtype float64"),
        (lambda ix: np.isin(np.arange(2_000), ix), "indices must be integers, got dtype bool"),
    ],
    ids=["descending", "beyond-the-data", "negative", "two-dimensional", "float", "boolean-mask"],
)
def test_the_audit_refuses_the_view_indices_a_view_refuses(indices, message):
    import dataclasses

    data, trace = _traced_build()
    records = trace.records
    at = next(i for i, r in enumerate(records) if r.n > 3 and i > 10)
    records[at] = dataclasses.replace(records[at], view_indices=indices(records[at].view_indices))
    with pytest.raises(ValueError, match=message):
        DataView(data, records[at].view_indices)
    with pytest.raises(ValueError, match=message):
        _audit_all(trace, data)
    # an earlier refusal is the one raised
    records[3] = dataclasses.replace(records[3], view_indices=records[3].view_indices[::-1].copy())
    with pytest.raises(ValueError, match="indices must be strictly ascending"):
        _audit_all(trace, data)


@pytest.mark.parametrize(
    "form",
    [lambda ix: ix.tolist(), lambda ix: ix.astype(np.uint64), lambda ix: ix.astype(np.int32),
     lambda ix: np.array(ix[0])],
    ids=["list", "uint64", "int32", "zero-dimensional"],
)
def test_the_audit_reads_the_view_indices_a_view_accepts_in_any_form(form):
    # each form is read as DataView reads it: the same points pass, and a
    # view of other points is reported, not refused
    import dataclasses

    data, trace = _traced_build()
    records = trace.records
    one = next(i for i, r in enumerate(records) if r.n == 1)
    many = next(i for i, r in enumerate(records) if r.n > 3 and i > 10)
    records[one] = dataclasses.replace(records[one], view_indices=form(records[one].view_indices))
    records[many] = dataclasses.replace(records[many], view_indices=form(records[many].view_indices[:-1]))
    for at in (one, many):
        DataView(data, records[at].view_indices)
    report = audit_autonomy(trace, data, randomized_decision(0.99), sample=0)
    cell = records[many].cell_id
    assert report.failures == (f"{cell}: size mismatch", f"{cell}: input hash mismatch")


@pytest.mark.parametrize("seed, message", [(1.5, "got 1.5"), (None, "got None"), (True, "not a bool")])
def test_the_audit_refuses_a_record_seed_that_is_no_integer(seed, message):
    import dataclasses

    data, trace = _traced_build()
    records = trace.records
    kept = records[40]
    # a numpy integer is read as the Python int
    records[40] = dataclasses.replace(kept, seed=np.uint64(kept.seed))
    assert audit_autonomy(trace, data, randomized_decision(0.99), sample=0).ok
    records[40] = dataclasses.replace(kept, seed=seed)
    with pytest.raises(ValueError, match=f"seed must be an integer, {message}"):
        audit_autonomy(trace, data, randomized_decision(0.99), sample=0)
    # the first refusal in record order is the one raised, a seed's or a view's
    records[70] = dataclasses.replace(records[70], view_indices=records[70].view_indices[::-1].copy())
    with pytest.raises(ValueError, match="seed must be an integer"):
        audit_autonomy(trace, data, randomized_decision(0.99), sample=0)
    records[20] = dataclasses.replace(records[20], view_indices=records[20].view_indices[::-1].copy())
    with pytest.raises(ValueError, match="indices must be strictly ascending"):
        audit_autonomy(trace, data, randomized_decision(0.99), sample=0)


def test_the_audit_passes_records_of_empty_views(rng):
    n = 40
    data = Dataset(rng.permutation(n).astype(np.float64).reshape(n, 1),
                   rng.integers(0, 2, size=n).astype(np.int8))

    def peel(view, seed):  # an empty low child and the rest high, down to one point
        if view.n <= 1:
            return LeafDecision(*view.label_counts())
        lowest = int(np.argmin(view.coords(0)))
        return SplitDecision(((0, float(view.coords(0)[lowest])),), (int(view.indices[lowest]),),
                             (DataView(data, np.empty(0, dtype=np.int64)),
                              DataView(data, np.delete(view.indices, lowest))))

    trace = BuildTrace()
    run_cells(CellTask(view=data.full_view(), seed=0), peel, trace=trace)
    assert sum(r.n == 0 for r in trace.records) == n - 1
    report = _audit_all(trace, data, peel)
    assert report.ok and report.checked == len(trace.records), report.failures
