"""Outside-in per-layer tracing for the celltree benchmark.

Nothing in the package is edited. Every traced layer exposes a public function
that its callers look up as a module or class attribute at call time, so
rebinding that attribute to a timing wrapper sees every call:

    celltree.median.strict_rank             rank/select kernel (median_split)
    celltree.randomized.median_split        one randomized cut (cell decision)
    celltree.core.DataView.subset           child-view construction
    celltree.{randomized,lookahead}.run_cells  frontier runtime; the decision
                                            function it is given is wrapped too
    celltree.lookahead.lookahead_error      the k+ probe (decide_stop_lookahead)
    celltree.lookahead.full_level_split     the committed level (cell decision)
    celltree.{serialize_tree, deserialize_tree, load_csv, predict_batch,
              route_depths}                 consumer calls made by the benchmark
    celltree.risklab.SyntheticDistribution.sample   input generation

Spans are aggregated in memory per name (calls, seconds, items). A span opened
by lookahead_error or full_level_split sets a per-thread phase, so ranked
points are also attributed to the probe or the commit that asked for them.
"""
from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Tally:
    """Aggregated spans since the last `LayerTrace.take`."""

    calls: Counter = field(default_factory=Counter)
    seconds: Counter = field(default_factory=Counter)
    items: Counter = field(default_factory=Counter)
    # generation -> [cells, points, decide seconds], over all run_cells calls
    generations: dict = field(default_factory=dict)
    # wall seconds of each run_cells call
    walls: list = field(default_factory=list)


class LayerTrace:
    """Installs timing wrappers on celltree's layer boundaries.

    `install` rebinds the attributes, `uninstall` restores the originals,
    `take` returns the spans recorded so far and starts a fresh tally. Values
    that describe the last object seen (document size, route depth) are kept
    in `last` across takes.
    """

    active = True

    def __init__(self, ct):
        self._ct = ct
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self.tally = Tally()
        self.last: dict[str, float] = {}

    def take(self) -> Tally:
        with self._lock:
            tally, self.tally = self.tally, Tally()
        return tally

    def install(self) -> None:
        ct = self._ct
        rows = lambda args, result: len(args[1])  # noqa: E731  (tree, queries)
        self._rebind(ct.median, "strict_rank", self._span("rank", lambda a, r: len(r)))
        self._rebind(ct.randomized, "median_split", self._span("split"))
        self._rebind(ct.core.DataView, "subset", self._span("view"))
        self._rebind(ct.randomized, "run_cells", self._run_cells_span)
        self._rebind(ct.lookahead, "run_cells", self._run_cells_span)
        self._rebind(ct.lookahead, "lookahead_error", self._span("probe", phase="probe"))
        self._rebind(ct.lookahead, "full_level_split", self._span("commit", phase="commit"))
        self._rebind(ct, "serialize_tree", self._span("serialize", after=self._doc_bytes))
        self._rebind(ct, "deserialize_tree", self._span("deserialize", after=self._doc_nodes))
        self._rebind(ct, "load_csv", self._span("load_csv", lambda a, r: r.n))
        self._rebind(ct, "predict_batch", self._span("predict", rows))
        self._rebind(ct, "route_depths", self._span("route_depths", rows, self._mean_depth))
        self._rebind(ct.risklab.SyntheticDistribution, "sample", self._span("sample"))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _rebind(self, owner, name, make_wrapper) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def _span(self, name, items=None, after=None, phase=None):
        local, lock = self._local, self._lock

        def make(fn):
            def span(*args, **kwargs):
                outer = getattr(local, "phase", None)
                if phase is not None:
                    local.phase = phase
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    local.phase = outer
                with lock:
                    tally = self.tally
                    tally.calls[name] += 1
                    tally.seconds[name] += dt
                    if items is not None:
                        count = items(args, result)
                        tally.items[name] += count
                        if outer is not None:
                            tally.items[f"{name}@{outer}"] += count
                if after is not None:
                    after(args, result)
                return result

            return span

        return make

    def _run_cells_span(self, run_cells):
        ct, lock = self._ct, self._lock

        def span(root, decide, *args, **kwargs):
            generation_of = {root.seed: 0}
            generations = self.tally.generations

            def decide_span(view, seed):
                # the decide span includes this bookkeeping, so run_cells
                # wall minus decide time is the runtime's own time
                t0 = perf_counter()
                decision = decide(view, seed)
                children = getattr(decision, "children", ())
                with lock:
                    gen = generation_of.pop(seed)
                    for j in range(len(children)):
                        generation_of[ct.derive_child_seed(seed, j)] = gen + 1
                    row = generations.setdefault(gen, [0, 0, 0.0])
                    row[0] += 1
                    row[1] += view.n
                    row[2] += perf_counter() - t0
                return decision

            t0 = perf_counter()
            node = run_cells(root, decide_span, *args, **kwargs)
            wall = perf_counter() - t0
            with lock:
                self.tally.walls.append(wall)
            return node

        return span

    def _doc_bytes(self, args, text):
        self.last["doc_bytes"] = len(text.encode("utf-8"))
        self._doc_nodes(None, args[0])

    def _doc_nodes(self, args, tree):
        self.last["doc_nodes"] = self._ct.tree_stats(tree).nodes

    def _mean_depth(self, args, depths):
        self.last["mean_route_depth"] = float(depths.mean()) if len(depths) else 0.0
