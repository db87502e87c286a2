"""Dataset CSV reading and writing.

``load_csv`` must give exactly what the row parser ``_load_csv_rows`` gives:
the same arrays bit for bit, or the same exception with the same message.
The differential tests draw files from a cell grammar that covers the inputs
where a faster reader could disagree with ``float()`` and ``csv.reader``.
``save_csv`` must write the bytes ``csv.writer`` writes.
"""
import csv
import io
import os
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celltree import Dataset, DatasetFormatError, core, load_csv, save_csv
from celltree.core import _load_csv_fast, _load_csv_rows
from conftest import make_dataset

SIGNS = st.sampled_from(["", "+", "-"])
MANTISSAS = st.sampled_from(["0", "1", "7", "0.5", ".5", "1.", "12.25", "007", "1_0", "١٢", "１"])
EXPONENTS = st.sampled_from(["", "e5", "E-3", "e+07", "e400", "e-400", "e-5_0", "e"])
SPECIALS = st.sampled_from(
    ["inf", "-Infinity", "+inf", "nan", "NaN", "-nan", "", "abc", "1#2", "#", '"1.5"', '"',
     "0x10", "1 2", ".", "1e5.", "\x00", "\udcff"]
)
# ASCII and Unicode whitespace, and the four ASCII separators U+001C..U+001F,
# which str.isspace() calls whitespace but float() refuses to strip
SPACES = st.sampled_from(
    ["", " ", "  ", "\t", "\x0b", "\x0c", "\xa0", "\u2000", "\u3000", "\x85", "\u2028",
     "\x1c", "\x1d", "\x1e", "\x1f"]
)
CLEAN_FEATURES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
)
MESSY_FEATURES = st.one_of(
    CLEAN_FEATURES,
    st.floats().map(repr),
    st.builds("".join, st.tuples(SIGNS, MANTISSAS, EXPONENTS)),
    SPECIALS,
    st.builds("".join, st.tuples(SPACES, CLEAN_FEATURES, SPACES)),
)
CLEAN_LABELS = st.sampled_from(["0", "1"])
MESSY_LABELS = st.one_of(
    st.sampled_from(["0", "1", "1.0", "0.0", "-0", "+1", "1e0", "0e5", " 1 ", "\xa00", "1_0"]),
    st.sampled_from(["2", "0.5", "-1", "nan", "inf", "x", '"1"', ""]),
    st.builds("".join, st.tuples(SPACES, CLEAN_LABELS, SPACES)),
)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


def first_lines(d: int):
    """Header lines, and first lines only csv.reader reads right."""
    names = [f"x{j + 1}" for j in range(d)]
    return st.sampled_from([
        ",".join(names + ["y"]),
        ",".join(["a"] * d),
        ",".join(names + ["y", "z"]),
        ",".join(names[:-1] + ["x#", "y"]),
        ",".join(names[:-1] + ["x\x00", "y"]),
        ",".join(["1"] * d + ["y"]),
        ",".join(f'"{c}"' for c in names + ["y"]),
        '"x,1",' + ",".join(names[1:] + ["y"]),
        ",".join(['"0.5"'] * d + ['"1"']),
    ])


@st.composite
def csv_texts(draw) -> str:
    """A CSV file: an optional first line, rows of d + 1 cells, and noise.

    Each part is plain or odd on its own draw. Plain rows hold only
    shortest-repr features and 0/1 labels, so many files reach the fast
    path; odd rows mix in every cell form above, blank and whitespace-only
    lines, wrong column counts and bad labels.
    """
    d = draw(st.integers(1, 3))
    odd_first, odd_rows, odd_ends, odd_start = (draw(st.booleans()) for _ in range(4))
    features = MESSY_FEATURES if odd_rows else CLEAN_FEATURES
    labels = MESSY_LABELS if odd_rows else CLEAN_LABELS
    lines = []
    if draw(st.booleans()):
        lines.append(draw(first_lines(d)) if odd_first else ",".join(f"x{j + 1}" for j in range(d)) + ",y")
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "space", "short", "long"])) if odd_rows else "row"
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(SPACES))
        else:
            width = d + {"row": 0, "short": -1, "long": 1}[kind]
            cells = [draw(features) for _ in range(width)] + [draw(labels)]
            lines.append(",".join(cells))
    ends = [draw(LINE_ENDS) if odd_ends else "\n" for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if odd_ends and draw(st.booleans()):
        text = text[:-1] if text.endswith(("\n", "\r")) else text
    if odd_start:
        text = draw(st.sampled_from(["\ufeff", "\n", "\r\n", " \n"])) + text
    return text


def outcome(load, path):
    """What a loader made of a file: its arrays as bytes, or its exception."""
    try:
        data = load(path)
    except Exception as exc:  # compare every failure, not only DatasetFormatError
        return ("raises", type(exc), str(exc))
    return ("data", data.xs.shape, data.xs.tobytes(), data.ys.tobytes())


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "data.csv"


@settings(max_examples=400, deadline=None)
@given(csv_texts())
def test_load_csv_matches_the_row_parser(csv_path, text):
    csv_path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert outcome(load_csv, csv_path) == outcome(_load_csv_rows, csv_path)


@pytest.mark.parametrize("text", [
    "0\n1\n",
    "\n1,0\n",
    " \n1,0\n",
    '"0.5",1\n0.25,0\n',
    '"x,1",y\n0.5,1\n',
    "x\x00,y\n0.5,1\n",
    "\ufeff0.5,1\n0.25,0\n",
    "x,y\n0.5,1\n \n",
    "x,y\r0.5,1\r0.25,0",
    "x,y\n1_0,1\n",
    "x,y\n-0.0,-0\n",
])
def test_edge_files_match_the_row_parser(tmp_path, text):
    p = tmp_path / "edge.csv"
    p.write_bytes(text.encode("utf-8"))
    assert outcome(load_csv, p) == outcome(_load_csv_rows, p)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["x1,x2,y\n", "x1,x2,y\r\n\r\n\n", "x1,x2,y"])
def test_header_only_file_is_empty_and_warns_nothing(tmp_path, text):
    p = tmp_path / "header.csv"
    p.write_bytes(text.encode("utf-8"))
    data = load_csv(p)
    assert (data.n, data.d) == (0, 2)


@settings(max_examples=400, deadline=None)
@given(csv_texts())
def test_fast_path_never_returns_data_the_row_parser_would_not(csv_path, text):
    csv_path.write_bytes(text.encode("utf-8", "surrogateescape"))
    data = _load_csv_fast(csv_path)
    if data is not None:
        assert outcome(lambda _: data, csv_path) == outcome(_load_csv_rows, csv_path)


@pytest.mark.parametrize("header", [True, False])
@pytest.mark.parametrize("d", [1, 3])
def test_fast_path_reads_what_save_csv_writes(tmp_path, rng, header, d):
    ds = make_dataset(rng, 40, d)
    p = tmp_path / "saved.csv"
    save_csv(ds, p, header=header)
    data = _load_csv_fast(p)
    assert data is not None
    assert data.xs.tobytes() == ds.xs.tobytes() and data.ys.tobytes() == ds.ys.tobytes()


def test_plain_text_under_a_compressed_suffix_is_read_as_text(tmp_path):
    # np.loadtxt would open this path through gzip; it is given the open file
    p = tmp_path / "data.csv.gz"
    p.write_text("x1,y\n0.5,1\n")
    assert _load_csv_fast(p).xs.tolist() == [[0.5]]
    assert load_csv(p).xs.tolist() == [[0.5]]


@pytest.mark.parametrize("rows", [3, 2000])  # under and over one read buffer
def test_a_pipe_is_read_once_and_whole(tmp_path, rows):
    text = "x1,x2,y\n" + "".join(f"{i / 7!r},{-i / 3!r},{i % 2}\n" for i in range(rows))
    p = tmp_path / "data.csv"
    p.write_text(text)
    read_fd, write_fd = os.pipe()

    def write():
        with os.fdopen(write_fd, "w") as out:
            out.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        piped = outcome(load_csv, f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)
        writer.join(timeout=10)
    assert piped == outcome(_load_csv_rows, p)
    assert piped[1] == (rows, 2)


def test_an_open_descriptor_is_read_by_the_row_parser(tmp_path):
    p = tmp_path / "quoted.csv"
    p.write_text('"x1","y"\n"0.5","1"\n')
    assert load_csv(os.open(p, os.O_RDONLY)).xs.tolist() == [[0.5]]  # open() closes it


@pytest.mark.parametrize("text", [
    "0.1,0.2,0\n0.7,0.3,1\n0.4,0.9,0\n",
    '"0.1","0.2","0"\n"0.7","0.3","1"\n',
    "x1,x2,y\n0.1,0.2,0\n0.7,0.3,1\n",
    '"x1","x2","y"\n"0.1","0.2","0"\n',
])
def test_a_leading_byte_order_mark_is_ignored(tmp_path, text):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    for read in (load_csv, _load_csv_rows):
        assert outcome(read, marked) == outcome(read, plain)


LIMIT = csv.field_size_limit()


def long_cell_files():
    """Files with one cell of about the field size limit, in each place."""
    for size in (LIMIT - 1, LIMIT, LIMIT + 1):
        number = "0." + "0" * (size - 3) + "5"
        over = f"{size - LIMIT:+d}"
        yield pytest.param(f"x1,x2,y\n0.25,{number},1\n", id=f"feature{over}")
        yield pytest.param(f"{number},0.25,0\n0.5,0.75,1\n", id=f"first-line{over}")
        yield pytest.param(f"x1,{'x' * size},y\n0.25,0.5,1\n", id=f"header{over}")


@pytest.mark.parametrize("text", long_cell_files())
def test_cells_near_the_field_size_limit_match_the_row_parser(tmp_path, text):
    p = tmp_path / "long.csv"
    p.write_text(text)
    assert outcome(load_csv, p) == outcome(_load_csv_rows, p)


def test_a_cell_over_the_field_size_limit_is_a_format_error_with_its_line(tmp_path):
    p = tmp_path / "long.csv"
    p.write_text("x1,y\n0.5,1\n0." + "0" * LIMIT + "5,0\n")
    with pytest.raises(DatasetFormatError, match=re.escape(f"line 3: field larger than field limit ({LIMIT})")):
        load_csv(p)


@pytest.mark.parametrize("limit", [1000, sys.maxsize])
def test_a_changed_field_size_limit_holds_on_both_paths(tmp_path, limit):
    p = tmp_path / "long.csv"
    old = csv.field_size_limit(limit)
    try:
        for size in (999, 1000, 1001, 3000, 300_000):
            for text in (f"x1,y\n0.{'0' * (size - 3)}5,1\n", f"x1,y\n0.5,1\n\x1c{'0' * size},0\n"):
                p.write_text(text)
                assert outcome(load_csv, p) == outcome(_load_csv_rows, p)
    finally:
        csv.field_size_limit(old)


def test_rows_longer_than_the_field_size_limit_reach_the_fast_path(tmp_path):
    d = LIMIT // 4
    p = tmp_path / "wide.csv"
    p.write_text(",".join(["0.125"] * d + ["1"]) + "\n")
    data = _load_csv_fast(p)
    assert data is not None and data.xs.shape == (1, d)


@pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_separator_around_a_number_is_refused_as_float_refuses_it(tmp_path, sep):
    p = tmp_path / "sep.csv"
    p.write_text(f"x1,y\n0.5,1\n{sep}0.25,0\n")
    message = f"line 3: feature {sep + '0.25'!r} is not numeric"
    with pytest.raises(DatasetFormatError, match=re.escape(message)):
        load_csv(p)


def csv_writer_bytes(ds, header: bool) -> bytes:
    """What save_csv wrote when it called csv.writer.writerow once per row."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    if header:
        writer.writerow([f"x{j + 1}" for j in range(ds.d)] + ["y"])
    for i in range(ds.n):
        writer.writerow([repr(float(v)) for v in ds.xs[i]] + [int(ds.ys[i])])
    return out.getvalue().encode("utf-8")


EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-300, 1.7976931348623157e308, 0.1, -2.5]


@pytest.mark.parametrize("block_rows", [2, 1 << 14])
@pytest.mark.parametrize("header", [True, False])
@pytest.mark.parametrize("d", [1, 3])
def test_save_csv_writes_the_csv_writer_bytes(tmp_path, monkeypatch, block_rows, header, d):
    monkeypatch.setattr(core, "_CSV_BLOCK_ROWS", block_rows)
    values = np.array(EXTREMES * d, dtype=np.float64)
    xs = values.reshape(d, len(EXTREMES)).T.copy()
    xs[:, 1:] = xs[::-1, 1:]  # rows differ across columns
    ys = np.arange(len(EXTREMES)) % 2
    for ds in (Dataset(xs, ys), Dataset(xs[:3], ys[:3]), Dataset.empty(d)):
        p = tmp_path / "saved.csv"
        save_csv(ds, p, header=header)
        assert p.read_bytes() == csv_writer_bytes(ds, header)
