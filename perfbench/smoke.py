"""Smoke check of the benchmark itself, at tiny sizes (n = 2,000).

Run from the repository root:

    python3 perfbench/smoke.py

It runs every workload with tracing off and on and requires that every check
passes, that the final JSON carries exactly the metrics BENCHMARK.json lists
with their units, and that the report names every stage timing with its unit.
It checks that the set-up's CSV writer matches celltree.save_csv byte for
byte. It then plants a wrong pinned hash and requires failed_frac > 0, and runs the
benchmark in a directory that holds only BENCHMARK.json and perfbench/, where
it must fail without printing a result.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import run

TINY = run.Sizes(n=2_000, trace_n=200, queries=512)
SEED = run.DEFAULT_SEED
REPORT_UNITS = dict.fromkeys(run.NAMED_STAGES, "s") | {"peak_rss_mb": "MiB", "failed_frac": "ratio"}


def require(ok, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke FAILED: {what}")


def quiet_run(workload: str, traced: bool, seconds: float = 0.0) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(workload, SEED, seconds, traced, TINY)
    return result, out.getvalue()


def check_workloads(spec: dict) -> None:
    require(tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS,
            "BENCHMARK.json lists the workloads run.py knows")
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            result, report = quiet_run(workload, traced, seconds=0.3)
            where = f"{workload} trace={int(traced)}"
            require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
            require(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                    f"{where}: every check passes\n{report}")
            metrics = result["metrics"]
            require({k: v["unit"] for k, v in metrics.items()} == expected,
                    f"{where}: metrics and units match BENCHMARK.json {key}")
            require(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                        for v in metrics.values()), f"{where}: metric values are finite numbers")
            if not traced:
                require(all(v["value"] > 0 for v in metrics.values()), f"{where}: end-to-end metrics are > 0")
            else:
                value = {k: v["value"] for k, v in metrics.items()}
                require(math.isclose(value["runtime.decide_s"] + value["runtime.self_s"],
                                     value["runtime.run_cells_s"], rel_tol=1e-9, abs_tol=1e-12),
                        f"{where}: decide_s + self_s equals run_cells_s")
            for name, unit in REPORT_UNITS.items():
                lines = [ln for ln in report.splitlines() if ln.startswith(f"metric {name} ")]
                require(len(lines) == 1 and lines[0].split()[-1] == unit,
                        f"{where}: report line for {name} with unit {unit}")


def check_csv_writer() -> None:
    data = run.CHECKER.sample(TINY.n, SEED)
    paths = [os.path.join(run.WORK, f"{name}-{os.getpid()}.csv") for name in ("fast", "save_csv")]
    os.makedirs(run.WORK, exist_ok=True)
    try:
        run.write_csv(data, paths[0])
        run.ct.save_csv(data, paths[1])
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            require(a.read() == b.read(), "write_csv writes the bytes save_csv writes")
    finally:
        for path in paths:
            os.remove(path)


def check_wrong_pin() -> None:
    key = ("randomized-1m", TINY.n)
    saved = run.PINNED_SHA[key]
    run.PINNED_SHA[key] = "0" * 64
    try:
        result, _ = quiet_run("randomized-1m", False)
    finally:
        run.PINNED_SHA[key] = saved
    require(result["failed"] > 0 and not result["correct"], "a wrong pinned hash makes failed_frac > 0")


def check_bare_directory() -> None:
    bare = os.path.join(run.WORK, f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "randomized-1m", "--seed", str(SEED),
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    require(proc.returncode != 0 and '"metrics"' not in proc.stdout,
            "without src/ the benchmark fails and prints no result")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_workloads(spec)
    check_csv_writer()
    check_wrong_pin()
    check_bare_directory()
    with contextlib.suppress(OSError):
        os.rmdir(run.WORK)
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
