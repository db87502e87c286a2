"""Deterministic cell-by-cell tree execution.

Every cell of a growing tree is an independent unit of work: it receives a
view of the data and a derived seed, and nothing else. A decision function
maps (view, seed) to either a leaf or a split with child views. `run_cells`
decides cells frontier by frontier in one thread, derives child seeds by
avalanche mixing of (parent seed, child index), and assembles the tree
bottom-up by structure rather than by decision order, so the result is
byte-for-byte identical for any order of the cells within a frontier.

The builders decide a generation at a time from the root in their own
kernels, with the same records, child seeds (`_child_seeds`) and, through
`_trace_generation`, the same trace. `run_cells` serves direct callers and
the per-cell references that the tests and `audit_autonomy`'s replays run.

The same property is what makes the classifiers here "cellular": no decision
may read global state such as the total training size. That cannot be made
unrepresentable in Python, so `audit_autonomy` re-executes traced cells on
detached copies of their views (fresh datasets that have forgotten the
original context) and flags any decision that changes.
"""
from __future__ import annotations

import bisect
import hashlib
import random
import struct
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Union

import numpy as np

from .core import Dataset, DataView, Leaf, Node, _assemble, _Generation, _integer

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 scramble round: 64-bit finalizer with full avalanche."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_child_seed(parent_seed: int, child_index: int) -> int:
    """Derived seed for one child cell.

    Two scramble rounds over (parent, index) so that nearby parents and small
    indices land on unrelated streams. Built-in hash() is salted per process
    and must not be used here.
    """
    return splitmix64(splitmix64(parent_seed & _MASK64) ^ (child_index + _GOLDEN))


# splitmix64's constants as uint64 scalars, made once
_G64 = np.uint64(_GOLDEN)
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


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


def _child_seeds(seeds: np.ndarray, arity: int) -> np.ndarray:
    """``derive_child_seed(seed, j)`` for each uint64 seed and each j below
    ``arity``, seed by seed, in ``seeds.size * arity`` entries and no more."""
    j = np.arange(seeds.size * arity, dtype=np.uint64) % np.uint64(arity)
    return _splitmix64s(np.repeat(_splitmix64s(seeds), arity) ^ (j + _G64))


class CellRng:
    """Per-cell random stream: a splitmix64 sequence from the cell's seed."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        z = splitmix64(self._state)
        self._state = (self._state + _GOLDEN) & _MASK64
        return z

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n). Multiply-shift; bias is O(n / 2^64)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return (self.next_u64() * n) >> 64


@dataclass(frozen=True)
class CellTask:
    """One pending cell: its data view, its seed, and diagnostic position."""

    view: DataView
    seed: int
    cell_id: str = "r"
    parent_id: str = ""


# a cell that stops returns its finished leaf, which the runtime keeps as is
LeafDecision = Leaf


@dataclass(frozen=True)
class SplitDecision:
    """A committed split: cuts in cascade order, eaten pivots, child views."""

    splits: tuple[tuple[int, float], ...]
    eaten: tuple[int, ...]
    children: tuple[DataView, ...]


CellDecision = Union[Leaf, SplitDecision]
DecisionFn = Callable[[DataView, int], CellDecision]


class CellBuildError(RuntimeError):
    """A decision function raised; carries the offending cell's view size."""

    def __init__(self, cell_id: str, view_size: int, cause: BaseException):
        super().__init__(f"cell {cell_id} (N={view_size}) failed: {cause!r}")
        self.cell_id = cell_id
        self.view_size = view_size


def decision_fingerprint(decision: CellDecision) -> str:
    """Canonical content fingerprint of a decision.

    Uses cut geometry and child sizes, never raw dataset indices, so the
    fingerprint is invariant under detaching the cell's view.
    """
    if isinstance(decision, Leaf):
        return f"leaf:{decision.count0}:{decision.count1}"
    cuts, children = decision.splits, decision.children
    return _split_fingerprints([dim for dim, _ in cuts], [thr for _, thr in cuts],
                               [c.n for c in children], 1, len(cuts), len(children))[0]


def _split_fingerprints(dims: list, thrs: list, sizes: list, splits: int, cuts: int,
                        arity: int) -> list[str]:
    """The fingerprints of ``splits`` splits, each its ``cuts`` (dim,
    threshold) cuts in cascade order, then its ``arity`` children's sizes.
    ``dims`` and ``thrs`` hold the cuts and ``sizes`` the children's sizes,
    split by split; each value is formatted once, then joined. No splits
    make no joins, whose runs could be 2^d - 1 long."""
    if not splits:
        return []
    return [f"split:dims={d}:thr={t}:sizes={s}" for d, t, s in zip(
        _joined(map(str, dims), cuts, splits), _joined(map(repr, thrs), cuts, splits),
        _joined(map(str, sizes), arity, splits))]


def _joined(strs, k: int, groups: int):
    """``groups`` runs of ``k`` strings each, each run joined by commas."""
    return map(",".join, zip(*[iter(strs)] * k)) if k else [""] * groups


def _input_hash(seed: int, xs, ys) -> str:
    """A cell's input hash: SHA-256 over its seed's 64 bits, then the bytes of
    its points' float64 rows and int8 labels, each a C-contiguous buffer."""
    h = hashlib.sha256(struct.pack("<Q", seed & _MASK64))
    h.update(xs)
    h.update(ys)
    return h.digest()[:8].hex()


def _gathered(dataset: Dataset, indices: np.ndarray) -> tuple[int, memoryview, memoryview]:
    """The dataset's rows and labels at ``indices``, each gathered with one
    ``take`` into a flat memoryview, and the values in one row: the points at
    positions a..b of ``indices`` are ``xs[a * row:b * row]`` and ``ys[a:b]``."""
    xs, ys = dataset.xs.take(indices, axis=0), dataset.ys.take(indices)
    return xs.shape[1], memoryview(xs.reshape(-1)), memoryview(ys)


@dataclass(frozen=True)
class TraceRecord:
    cell_id: str
    parent_id: str
    n: int
    seed: int
    decision_fp: str
    input_hash: str
    view_indices: np.ndarray  # the view's own read-only int64 indices

    def line(self) -> str:
        parent = self.parent_id or "-"
        seed_fp = f"{splitmix64(self.seed):016x}"
        return (
            f"{self.cell_id}\t{parent}\t{self.n}\t{self.decision_fp}\t"
            f"{seed_fp}\t{self.input_hash}"
        )


@dataclass
class BuildTrace:
    """Per-cell decision log, one line-oriented record per executed cell."""

    records: list[TraceRecord] = field(default_factory=list)

    def lines(self) -> list[str]:
        return [r.line() for r in self.records]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.lines():
                fh.write(line + "\n")


def _root_frontier(seed: int) -> tuple[list, list, list]:
    """The root's trace frontier: its seed as given (-1 stays -1), cell id and parent id."""
    return [seed], ["r"], [""]


def _trace_generation(trace: BuildTrace, gen: _Generation, cells: np.ndarray, sizes: np.ndarray,
                      children: np.ndarray, frontier: tuple, dataset: Dataset) -> tuple[list, list, list]:
    """Append a kernel generation's ``TraceRecord``s as ``run_cells`` makes
    them, each view's indices a read-only int64 slice. Row i of ``cells``
    holds the ``sizes[i]`` points of ``frontier``'s cell i ascending before
    its filler, and ``children`` each split's children's sizes. ``frontier``
    holds the generation's seeds, cell ids and parent ids; returns the
    next's. The fingerprints are formatted from the generation's columns,
    and each cell is hashed from slices of its rows, gathered once for the
    generation (``_gathered``)."""
    seeds, ids, parents = frontier
    real = np.arange(cells.shape[1]) < sizes[:, None]
    viewed = cells.reshape(-1).compress(real.reshape(-1)).astype(np.int64)
    viewed.flags.writeable = False
    row, xs, ys = _gathered(dataset, viewed)
    split, arity = gen.split.tolist(), gen.arity
    leaves = iter([f"leaf:{c0}:{c1}" for c0, c1 in zip(gen.count0.tolist(), gen.count1.tolist())])
    splits = iter(_split_fingerprints(gen.dims.tolist(), gen.thrs.tolist(), children.tolist(),
                                      len(split) - len(gen.count0), arity - 1, arity))
    ends = np.cumsum(sizes).tolist()
    trace.records += [
        TraceRecord(cell_id, parent_id, b - a, seed, next(splits) if s else next(leaves),
                    _input_hash(seed, xs[a * row:b * row], ys[a:b]), viewed[a:b])
        for s, a, b, seed, cell_id, parent_id in zip(split, [0, *ends[:-1]], ends, seeds, ids, parents)
    ]
    # the root's seed, as given, may lie outside uint64 (-1): an object array
    # masks the split cells' seeds to 64 bits in one operation
    kept = (np.array(list(compress(seeds, split)), dtype=object) & _MASK64).astype(np.uint64)
    parent_ids = list(compress(ids, split))
    return (_child_seeds(kept, arity).tolist(), [f"{p}.{j}" for p in parent_ids for j in range(arity)],
            [p for p in parent_ids for _ in range(arity)])


def run_cells(
    root: CellTask,
    decide: DecisionFn,
    workers: int = 1,
    trace: BuildTrace | None = None,
    shuffle_seed: int | None = None,
) -> Node:
    """Execute a cell tree to completion and assemble the node tree.

    Cells are decided frontier by frontier, in one thread. Results are kept
    by frontier position, which keeps assembly independent of the order in
    which the cells were decided. ``shuffle_seed`` randomizes that order
    inside each frontier (used by tests to demonstrate schedule
    independence); the assembled tree does not change. ``workers`` is
    accepted and checked to be an integer >= 1, and changes nothing.
    """
    if _integer(workers, "workers") < 1:
        raise ValueError("workers must be >= 1")
    shuffler = random.Random(shuffle_seed) if shuffle_seed is not None else None

    # one list per generation, in frontier order: each decided cell's
    # finished Leaf, or its split's (splits, eaten, arity). Child views are
    # not kept, so each generation's index arrays are freed once its
    # children have run.
    generations: list[list] = []
    frontier: list[CellTask] = [root]
    while frontier:
        order = list(range(len(frontier)))
        if shuffler is not None:
            shuffler.shuffle(order)
        results: list[CellDecision] = [None] * len(frontier)  # type: ignore[list-item]
        for i in order:
            task = frontier[i]
            try:
                results[i] = decide(task.view, task.seed)
            except Exception as exc:
                raise CellBuildError(task.cell_id, task.view.n, exc) from exc
        cells: list = []
        nxt: list[CellTask] = []
        for task, decision in zip(frontier, results):
            if trace is not None:
                trace.records.append(
                    TraceRecord(
                        cell_id=task.cell_id,
                        parent_id=task.parent_id,
                        n=task.view.n,
                        seed=task.seed,
                        decision_fp=decision_fingerprint(decision),
                        input_hash=_input_hash(task.seed, task.view.xs, task.view.ys),
                        view_indices=task.view.indices,
                    )
                )
            if isinstance(decision, Leaf):
                cells.append(decision)
                continue
            cells.append((decision.splits, decision.eaten, len(decision.children)))
            for j, child_view in enumerate(decision.children):
                nxt.append(
                    CellTask(
                        view=child_view,
                        seed=derive_child_seed(task.seed, j),
                        cell_id=f"{task.cell_id}.{j}",
                        parent_id=task.cell_id,
                    )
                )
        generations.append(cells)
        frontier = nxt
    return _assemble(generations)[0]


@dataclass(frozen=True)
class AutonomyReport:
    ok: bool
    checked: int
    failures: tuple[str, ...]


def audit_autonomy(
    trace: BuildTrace,
    dataset,
    decide: DecisionFn,
    sample: int = 10,
    seed: int = 0,
) -> AutonomyReport:
    """Verify that traced decisions depend only on (view contents, seed).

    Every record's size and input hash are checked against its stored view
    in one pass: the indices are cast and checked by ``DataView``'s rules,
    raising its ValueError, and the dataset's rows are gathered once. Then a
    sample of cells is re-executed in isolation: the cell's points are copied
    into a fresh dataset with no trace of the original context, and the
    decision must reproduce the recorded fingerprint. A decision that peeks
    at global state (for example the full training size) changes its answer
    on the detached copy and fails the audit.
    """
    if _integer(sample, "sample") < 0:
        raise ValueError("sample must be >= 0")
    records = list(trace.records)
    failures = _input_failures(records, dataset)
    rng = random.Random(seed)
    picked = records if len(records) <= sample else rng.sample(records, sample)
    for record in picked:
        view = DataView(dataset, record.view_indices)
        detached = view.detach()
        try:
            replay = decide(detached, record.seed)
        except Exception as exc:  # re-execution must not crash either
            failures.append(f"{record.cell_id}: replay raised {exc!r}")
            continue
        if decision_fingerprint(replay) != record.decision_fp:
            failures.append(
                f"{record.cell_id}: decision changed on detached view "
                f"({record.decision_fp} -> {decision_fingerprint(replay)})"
            )
    return AutonomyReport(ok=not failures, checked=len(picked), failures=tuple(failures))


# points whose rows the audit gathers at a time, so that a large trace is
# hashed in bounded memory
_AUDIT_BLOCK = 1 << 20


def _input_failures(records: list[TraceRecord], dataset) -> list[str]:
    """Each record's size and input hash checked against its own view, in
    record order. The first record whose indices ``DataView`` would refuse,
    or whose seed is no integer, raises its ValueError."""
    given = [ix if type(ix) is np.ndarray and ix.ndim == 1 else np.atleast_1d(ix)
             for ix in (r.view_indices for r in records)]
    flat_end = next((i for i, ix in enumerate(given) if ix.ndim != 1 or ix.size and ix.dtype.kind
                     not in "iu" and not np.issubdtype(ix.dtype, np.integer)), len(given))
    sizes = np.array([ix.size for ix in given[:flat_end]], dtype=np.int64)
    flat = np.concatenate(given[:flat_end] + [np.empty(0, dtype=np.int64)], dtype=np.int64)
    del given
    ends = np.cumsum(sizes)
    starts = ends - sizes
    ascending = np.ones(flat.size, dtype=bool)  # above the point before it, or first in its record
    ascending[1:] = np.diff(flat) > 0
    ascending[starts[sizes > 0]] = True
    wrong = ~ascending | (flat < 0) | (flat >= dataset.n)
    bad = int(np.searchsorted(ends, wrong.argmax(), side="right")) if wrong.any() else flat_end
    seeds = [_integer(r.seed, "seed") for r in records[:bad]]
    if bad < len(records):
        DataView(dataset, records[bad].view_indices)  # raises the first refusal
    failures: list[str] = []
    starts, ends = starts.tolist(), ends.tolist()
    first = 0
    while first < len(records):
        last = max(bisect.bisect_right(ends, starts[first] + _AUDIT_BLOCK), first + 1)
        block = flat[starts[first]:ends[last - 1]]
        row, xs, ys = _gathered(dataset, block)
        for record, seed, a, b in zip(records[first:last], seeds[first:last],
                                      starts[first:last], ends[first:last]):
            a, b = a - starts[first], b - starts[first]
            if record.n != b - a:
                failures.append(f"{record.cell_id}: size mismatch")
            if _input_hash(seed, xs[a * row:b * row], ys[a:b]) != record.input_hash:
                failures.append(f"{record.cell_id}: input hash mismatch")
        first = last
    return failures
