import csv
import hashlib
import json
import re

import pytest

from celltree import get_distribution, save_csv
from celltree.cli import main
from celltree.risklab import RISK_CSV_COLUMNS


@pytest.fixture
def train_csv(tmp_path):
    data = get_distribution("d-lin", d=2).sample(400, seed=101)
    path = tmp_path / "train.csv"
    save_csv(data, path)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_train_then_inspect_roundtrip(tmp_path, train_csv, capsys):
    out = tmp_path / "tree.json"
    code, stdout, _ = run(
        capsys, "train", "--algo", "randomized", "--data", train_csv,
        "--out", out, "--seed", "7",
    )
    assert code == 0
    assert "trained algo=randomized n=400 d=2" in stdout
    assert out.exists()

    code, stdout, _ = run(capsys, "inspect", "--tree", out)
    assert code == 0
    assert "mode=binary" in stdout
    assert '"algo":"randomized"' in stdout.replace(" ", "")
    assert "conservation=pass" in stdout
    match = re.search(r"depth_hist=((\d+:\d+,?)+)", stdout)
    assert match is not None


def test_retrain_is_byte_identical(tmp_path, train_csv, capsys):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code, _, _ = run(
            capsys, "train", "--algo", "lookahead", "--data", train_csv,
            "--out", out, "--seed", "3", "--alpha", "0.2", "--beta", "0.2",
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_workers_env_and_flag_agree(tmp_path, train_csv, capsys, monkeypatch):
    out_flag = tmp_path / "flag.json"
    code, _, _ = run(
        capsys, "train", "--algo", "randomized", "--data", train_csv,
        "--out", out_flag, "--seed", "5", "--workers", "4",
    )
    assert code == 0
    monkeypatch.setenv("CELLTREE_WORKERS", "8")
    out_env = tmp_path / "env.json"
    code, _, _ = run(
        capsys, "train", "--algo", "randomized", "--data", train_csv,
        "--out", out_env, "--seed", "5",
    )
    assert code == 0
    assert out_flag.read_bytes() == out_env.read_bytes()


def test_invalid_workers_env_is_usage_error(tmp_path, train_csv, capsys, monkeypatch):
    monkeypatch.setenv("CELLTREE_WORKERS", "many")
    code, _, stderr = run(
        capsys, "train", "--algo", "randomized", "--data", train_csv,
        "--out", tmp_path / "t.json",
    )
    assert code == 2
    assert "CELLTREE_WORKERS" in stderr


def test_inadmissible_lookahead_parameters_exit_3(tmp_path, train_csv, capsys):
    # d=2 with alpha=0.4, beta=0.2: 1 - d*alpha - 2*beta = -0.2
    code, _, stderr = run(
        capsys, "train", "--algo", "lookahead", "--data", train_csv,
        "--out", tmp_path / "t.json", "--alpha", "0.4", "--beta", "0.2",
    )
    assert code == 3
    assert "inadmissible" in stderr


def test_missing_data_file_exit_4(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "train", "--algo", "randomized",
        "--data", tmp_path / "nope.csv", "--out", tmp_path / "t.json",
    )
    assert code == 4
    assert "error" in stderr


def test_eval_on_csv(tmp_path, train_csv, capsys):
    out = tmp_path / "tree.json"
    run(capsys, "train", "--algo", "randomized", "--data", train_csv, "--out", out)
    test_path = tmp_path / "test.csv"
    save_csv(get_distribution("d-lin", d=2).sample(1000, seed=202), test_path)
    code, stdout, _ = run(capsys, "eval", "--tree", out, "--data", test_path)
    assert code == 0
    match = re.fullmatch(
        r"error_rate=(\d\.\d{6}) std_error=\d\.\d{6} n_test=1000\n", stdout
    )
    assert match is not None
    assert 0.0 <= float(match.group(1)) <= 1.0


def test_eval_on_distribution_reports_excess(tmp_path, train_csv, capsys):
    out = tmp_path / "tree.json"
    run(capsys, "train", "--algo", "randomized", "--data", train_csv, "--out", out)
    code, stdout, _ = run(
        capsys, "eval", "--tree", out, "--dist", "d-lin", "--dim", "2",
        "--m", "20000", "--seed", "1",
    )
    assert code == 0
    assert "bayes_risk=0.250000" in stdout
    assert "excess=" in stdout


def test_eval_oracle_needs_no_tree(capsys):
    code, stdout, _ = run(
        capsys, "eval", "--oracle", "--dist", "d-const", "--p", "0.5",
        "--m", "40000", "--seed", "2",
    )
    assert code == 0
    rate = float(re.search(r"error_rate=(\d\.\d{6})", stdout).group(1))
    assert abs(rate - 0.5) < 0.01


def test_eval_oracle_hits_known_optimum(capsys):
    code, stdout, _ = run(
        capsys, "eval", "--oracle", "--dist", "d-lin", "--dim", "2",
        "--m", "100000", "--seed", "3",
    )
    assert code == 0
    rate = float(re.search(r"error_rate=(\d\.\d{6})", stdout).group(1))
    se = float(re.search(r"std_error=(\d\.\d{6})", stdout).group(1))
    assert abs(rate - 0.25) <= 3 * se


def test_bench_on_pure_noise_is_flat(tmp_path, capsys):
    out = tmp_path / "noise.csv"
    code, _, _ = run(
        capsys, "bench", "--algo", "randomized", "--dist", "d-const", "--p", "0.5",
        "--dim", "1", "--n-grid", "50,400", "--reps", "2", "--m", "5000",
        "--out", out, "--seed", "13",
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert abs(float(row["mean_risk"]) - 0.5) < 0.05  # nothing to learn


def test_eval_rejects_data_and_dist_together(tmp_path, train_csv, capsys):
    code, _, stderr = run(
        capsys, "eval", "--tree", tmp_path / "t.json",
        "--data", train_csv, "--dist", "d-lin",
    )
    assert code == 2
    assert "exactly one" in stderr


def test_eval_unknown_distribution_exit_2(capsys):
    code, _, stderr = run(capsys, "eval", "--oracle", "--dist", "d-spiral")
    assert code == 2
    assert "d-spiral" in stderr


def test_eval_dimension_mismatch_exit_2(tmp_path, train_csv, capsys):
    out = tmp_path / "tree.json"
    run(capsys, "train", "--algo", "randomized", "--data", train_csv, "--out", out)
    code, _, stderr = run(capsys, "eval", "--tree", out, "--dist", "d-lin", "--dim", "3")
    assert code == 2
    assert "d=" in stderr


def test_inspect_corrupt_document_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, stderr = run(capsys, "inspect", "--tree", bad)
    assert code == 4
    assert "error" in stderr


def test_inspect_deeply_nested_document_exit_4(tmp_path, capsys):
    leaf = '{"count0":0,"count1":0}'
    close = "," + leaf + '],"eaten":1,"splits":[[1,0.5]]}'
    deep = tmp_path / "deep.json"
    deep.write_text(
        '{"config":{},"d":1,"mode":"binary","root":'
        + '{"children":[' * 5000 + leaf + close * 5000 + "}"
    )
    code, _, stderr = run(capsys, "inspect", "--tree", deep)
    assert code == 4
    assert "nested too deeply" in stderr


def test_inspect_detects_tampered_counts(tmp_path, train_csv, capsys):
    out = tmp_path / "tree.json"
    run(capsys, "train", "--algo", "randomized", "--data", train_csv, "--out", out)
    doc = json.loads(out.read_text())

    def bump_first_leaf(node):
        if "count0" in node:
            node["count0"] += 1
            return True
        return any(bump_first_leaf(c) for c in node["children"])

    assert bump_first_leaf(doc["root"])
    out.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "inspect", "--tree", out)
    assert code == 4
    assert "conservation=fail" in stdout


def test_bench_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, stdout, _ = run(
        capsys, "bench", "--algo", "randomized", "--dist", "d-lin", "--dim", "1",
        "--n-grid", "50,100", "--reps", "2", "--m", "500", "--out", out, "--seed", "9",
    )
    assert code == 0
    assert stdout.count("mean_risk=") == 2  # one aggregate line per n
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(RISK_CSV_COLUMNS)
    assert len(rows) == 1 + 2 * (2 + 1)  # header + per-rep and aggregate rows per n

    manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
    assert manifest["tool"] == "celltree"
    assert manifest["command"] == "bench"
    assert manifest["flags"]["n_grid"] == "50,100"
    assert str(out) in manifest["outputs"]


def test_manifest_records_inputs_and_flags(tmp_path, train_csv, capsys):
    out = tmp_path / "tree.json"
    run(
        capsys, "train", "--algo", "randomized", "--data", train_csv,
        "--out", out, "--seed", "11", "--beta", "0.4",
    )
    manifest = json.loads((tmp_path / "tree.json.manifest.json").read_text())
    assert manifest["flags"]["seed"] == 11
    assert manifest["flags"]["beta"] == 0.4
    assert str(train_csv) in manifest["inputs"]
    assert len(manifest["inputs"][str(train_csv)]) == 64  # sha256 hex


def test_bench_rejects_bad_reps_and_grid(tmp_path, capsys):
    base = ["bench", "--algo", "randomized", "--dist", "d-lin",
            "--out", tmp_path / "c.csv"]
    code, _, _ = run(capsys, *base, "--n-grid", "50", "--reps", "0")
    assert code == 2
    code, _, stderr = run(capsys, *base, "--n-grid", "50;100", "--reps", "2")
    assert code == 2
    assert "n-grid" in stderr


def test_argparse_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["train", "--algo", "bogus", "--data", "x", "--out", "y"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert re.match(r"celltree \d+\.\d+\.\d+", capsys.readouterr().out)


def assert_one_line_error(stderr):
    lines = stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), stderr


def test_undecodable_data_file_exit_4(tmp_path, capsys):
    path = tmp_path / "utf16.csv"
    path.write_bytes(b"\xff\xfe" + "x1,y\n0.5,1\n".encode("utf-16-le"))
    code, _, stderr = run(
        capsys, "train", "--algo", "randomized", "--data", path,
        "--out", tmp_path / "t.json",
    )
    assert code == 4
    assert_one_line_error(stderr)
    assert "UTF-8" in stderr


def test_undecodable_tree_document_exit_4(tmp_path, capsys):
    path = tmp_path / "tree.json"
    path.write_bytes(b"\xff\xfe" + '{"mode":"full"}'.encode("utf-16-le"))
    code, _, stderr = run(capsys, "inspect", "--tree", path)
    assert code == 4
    assert_one_line_error(stderr)
    assert "UTF-8" in stderr


def test_field_over_the_size_limit_reports_its_line_exit_4(tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text("x1,y\n0.5,1\n0." + "0" * csv.field_size_limit() + "5,0\n")
    code, _, stderr = run(
        capsys, "train", "--algo", "randomized", "--data", path,
        "--out", tmp_path / "t.json",
    )
    assert code == 4
    assert_one_line_error(stderr)
    assert "line 3" in stderr and "field limit" in stderr


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_feature_reports_its_line_exit_4(tmp_path, capsys, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"x1,x2,y\n0.1,0.2,0\n0.3,{cell},1\n0.5,0.6,0\n")
    code, _, stderr = run(
        capsys, "train", "--algo", "randomized", "--data", path,
        "--out", tmp_path / "t.json",
    )
    assert code == 4
    assert_one_line_error(stderr)
    assert "line 3" in stderr and repr(cell) in stderr


@pytest.mark.parametrize("m", ["0", "-5"])
def test_eval_rejects_non_positive_m_exit_2(capsys, m):
    code, _, stderr = run(capsys, "eval", "--oracle", "--dist", "d-lin", "--m", m)
    assert code == 2
    assert_one_line_error(stderr)
    assert "--m" in stderr


@pytest.mark.parametrize("dist", ["d-lin", "d-const"])
@pytest.mark.parametrize("dim", ["0", "-1"])
def test_non_positive_dim_exit_2(tmp_path, capsys, dist, dim):
    code, _, stderr = run(
        capsys, "eval", "--oracle", "--dist", dist, "--dim", dim, "--m", "100"
    )
    assert code == 2
    assert_one_line_error(stderr)
    code, _, stderr = run(
        capsys, "bench", "--algo", "randomized", "--dist", dist, "--dim", dim,
        "--n-grid", "50", "--reps", "1", "--m", "100", "--out", tmp_path / "c.csv",
    )
    assert code == 2
    assert_one_line_error(stderr)
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("beta", ["0", "1", "1.5", "-0.5", "nan"])
def test_randomized_beta_out_of_range_exit_2(tmp_path, train_csv, capsys, beta):
    out = tmp_path / "t.json"
    code, _, stderr = run(
        capsys, "train", "--algo", "randomized", "--data", train_csv,
        "--out", out, "--beta", beta,
    )
    assert code == 2
    assert_one_line_error(stderr)
    assert not out.exists()
    code, _, stderr = run(
        capsys, "bench", "--algo", "randomized", "--dist", "d-lin",
        "--n-grid", "50", "--reps", "1", "--m", "100", "--beta", beta,
        "--out", tmp_path / "c.csv",
    )
    assert code == 2
    assert_one_line_error(stderr)


@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
def test_nan_lookahead_parameter_exit_3(tmp_path, train_csv, capsys, flag):
    out = tmp_path / "t.json"
    code, _, stderr = run(
        capsys, "train", "--algo", "lookahead", "--data", train_csv,
        "--out", out, flag, "nan",
    )
    assert code == 3
    assert_one_line_error(stderr)
    assert "finite" in stderr
    assert not out.exists()


def test_inspect_rejects_a_boolean_leaf_count_exit_4(tmp_path, capsys):
    path = tmp_path / "tree.json"
    path.write_text(
        '{"config":{"n":2},"d":1,"mode":"binary","root":{"children":'
        '[{"count0":true,"count1":0},{"count0":0,"count1":0}],"eaten":1,"splits":[[1,0.5]]}}'
    )
    code, stdout, stderr = run(capsys, "inspect", "--tree", path)
    assert code == 4
    assert_one_line_error(stderr)
    assert "conservation" not in stdout


@pytest.mark.parametrize(
    "flags, message",
    [(("--algo", "randomized", "--beta", "2"), "beta"),
     (("--algo", "lookahead", "--workers", "0"), "workers")],
)
def test_train_checks_flags_before_parsing_the_file_exit_2(tmp_path, capsys, flags, message):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,y\n0.1,0.2,0\n0.3,oops,1\n")
    code, _, stderr = run(capsys, "train", "--data", path, "--out", tmp_path / "t.json", *flags)
    assert code == 2
    assert_one_line_error(stderr)
    assert message in stderr and "line" not in stderr


@pytest.mark.parametrize("command", ["inspect", "eval"])
def test_threshold_beyond_the_float_range_exit_4(tmp_path, capsys, command):
    path = tmp_path / "tree.json"
    path.write_text(
        '{"config":{},"d":1,"mode":"binary","root":{"children":[{"count0":1,"count1":0},'
        '{"count0":0,"count1":1}],"eaten":1,"splits":[[1,1' + "0" * 400 + "]]}}"
    )
    extra = ("--dist", "d-lin", "--dim", "1", "--m", "10") if command == "eval" else ()
    code, _, stderr = run(capsys, command, "--tree", path, *extra)
    assert code == 4
    assert_one_line_error(stderr)
    assert "cut threshold must be finite" in stderr


def test_inspect_non_finite_config_value_exit_4(tmp_path, capsys):
    path = tmp_path / "tree.json"
    path.write_text('{"config":{"n":NaN},"d":1,"mode":"binary","root":{"count0":1,"count1":0}}')
    code, stdout, stderr = run(capsys, "inspect", "--tree", path)
    assert code == 4
    assert_one_line_error(stderr)
    assert stdout == ""


def test_inspect_boolean_n_leaves_conservation_unknown(tmp_path, capsys):
    path = tmp_path / "tree.json"
    path.write_text('{"config":{"n":true},"d":1,"mode":"binary","root":{"count0":1,"count1":0}}')
    code, stdout, _ = run(capsys, "inspect", "--tree", path)
    assert code == 0
    assert "conservation=unknown" in stdout


@pytest.mark.parametrize(
    "flags, sha256",
    [
        (("--algo", "randomized", "--dist", "d-lin", "--dim", "1", "--n-grid", "50,200",
          "--reps", "3", "--m", "2000"),
         "c6857f277eadad83662cfb9e47ea6f1d6e84b881ad2d09076bdac57a2f0f42ff"),
        (("--algo", "lookahead", "--dist", "d-checker", "--n-grid", "100,400",
          "--reps", "2", "--m", "2000"),
         "ddd396a0b2f66ac165d6311ecbb53abd48946368628d13dbdbab4049f94b6a7e"),
        # reps = 1: the aggregate row repeats the single rep's standard error
        (("--algo", "lookahead", "--dist", "d-lin", "--dim", "1", "--n-grid", "300",
          "--reps", "1", "--m", "1000", "--alpha", "0.3", "--beta", "0.1"),
         "6dd5b3acd311da5ae1f92c090ba82dd3dab78babc52a9286b4d8a8b46313d2f1"),
    ],
)
def test_bench_risk_csv_bytes_are_pinned(tmp_path, capsys, flags, sha256):
    out = tmp_path / "curve.csv"
    code, _, _ = run(capsys, "bench", *flags, "--seed", "5", "--out", out)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
