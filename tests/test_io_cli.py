"""CSV ingestion, artifact serialization, and command-line behavior."""

import json
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsfactor.io
from tsfactor.cli import run
from tsfactor.errors import IngestError, TsfactorError
from tsfactor.io import (
    fmt_float,
    ingest_csv,
    ingest_matrix_csv,
    read_loadings_csv,
    write_loadings_csv,
    write_trace_kv,
)
from tsfactor.simulate import SimulationSpec, generate_two_strength


def write_panel_csv(path, p=12, n=90, seed=5, header=True):
    """Write a small factor-structured panel and return its raw values."""
    rng = np.random.default_rng(seed)
    loading = rng.standard_normal((p, 2))
    x = np.zeros((n, 2))
    for t in range(1, n):
        x[t] = 0.7 * x[t - 1] + rng.standard_normal(2)
    y = x @ loading.T + 0.3 * rng.standard_normal((n, p))
    with open(path, "w") as fh:
        if header:
            fh.write(",".join(f"s{j + 1}" for j in range(p)) + "\n")
        for row in y:
            fh.write(",".join(fmt_float(v) for v in row) + "\n")
    return y


def write_matrix_csv(path, n=60, p1=5, p2=4, seed=3, scale=1.0):
    rng = np.random.default_rng(seed)
    arr = scale * rng.standard_normal((n, p1, p2))
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"c{j + 1}" for j in range(p2)) + "\n")
        for t in range(n):
            for i in range(p1):
                fh.write(f"{t + 1}," + ",".join(fmt_float(v) for v in arr[t, i]) + "\n")
    return arr


def read_kv(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        key, value = line.split("=", 1)
        out[key] = value
    return out


class TestIngestCsv:
    def test_two_row_single_column_demeans_to_plus_minus_one(self, tmp_path):
        f = tmp_path / "tiny.csv"
        f.write_text("x\n1\n3\n")
        panel = ingest_csv(f)
        assert panel.names == ("x",)
        assert panel.demeaned
        np.testing.assert_allclose(panel.data, [[-1.0], [1.0]])

    def test_headerless_numeric_file_gets_default_names(self, tmp_path):
        f = tmp_path / "plain.csv"
        f.write_text("1,2\n3,4\n5,9\n")
        panel = ingest_csv(f, demean_panel=False)
        assert panel.names == ("v1", "v2")
        assert panel.data.shape == (3, 2)
        np.testing.assert_allclose(panel.data, [[1, 2], [3, 4], [5, 9]])

    def test_demean_is_on_by_default(self, tmp_path):
        f = tmp_path / "p.csv"
        raw = write_panel_csv(f, p=4, n=30)
        panel = ingest_csv(f)
        np.testing.assert_allclose(panel.data, raw - raw.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(
            ingest_csv(f, demean_panel=False).data, raw, atol=0
        )

    def test_non_numeric_cell_reports_row_and_column(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("a,b\n1,2\n3,NA\n")
        with pytest.raises(IngestError) as info:
            ingest_csv(f)
        assert info.value.row == 3
        assert info.value.column == 2
        assert "NA" in str(info.value)

    def test_non_finite_cell_rejected_with_location(self, tmp_path):
        f = tmp_path / "inf.csv"
        f.write_text("1,2\ninf,4\n")
        with pytest.raises(IngestError) as info:
            ingest_csv(f)
        assert info.value.row == 2
        assert info.value.column == 1

    def test_ragged_row_reports_line(self, tmp_path):
        f = tmp_path / "ragged.csv"
        f.write_text("1,2\n3,4\n5\n")
        with pytest.raises(IngestError) as info:
            ingest_csv(f)
        assert info.value.row == 3
        assert "expected 2" in str(info.value)

    def test_empty_and_header_only_files_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(IngestError):
            ingest_csv(empty)
        header_only = tmp_path / "h.csv"
        header_only.write_text("a,b\n")
        with pytest.raises(IngestError):
            ingest_csv(header_only)

    def test_missing_file_raises_ingest_error(self, tmp_path):
        with pytest.raises(IngestError):
            ingest_csv(tmp_path / "nope.csv")

    def test_blank_lines_are_skipped(self, tmp_path):
        f = tmp_path / "blank.csv"
        f.write_text("a,b\n1,2\n\n3,4\n\n")
        panel = ingest_csv(f, demean_panel=False)
        assert panel.data.shape == (2, 2)


class TestIngestMatrixCsv:
    def test_blocks_parse_to_three_dim_array(self, tmp_path):
        f = tmp_path / "m.csv"
        arr = write_matrix_csv(f, n=7, p1=3, p2=2)
        mp = ingest_matrix_csv(f)
        assert (mp.n, mp.p1, mp.p2) == (7, 3, 2)
        np.testing.assert_array_equal(mp.data, arr)

    def test_headerless_matrix_file_parses(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,1.0,2.0\n1,3.0,4.0\n2,5.0,6.0\n2,7.0,8.0\n")
        mp = ingest_matrix_csv(f)
        assert (mp.n, mp.p1, mp.p2) == (2, 2, 2)

    def test_unequal_block_sizes_rejected(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("t,a\n1,1.0\n1,2.0\n2,3.0\n")
        with pytest.raises(IngestError, match="expected 2"):
            ingest_matrix_csv(f)

    def test_non_increasing_block_index_rejected(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("t,a\n2,1.0\n1,2.0\n")
        with pytest.raises(IngestError) as info:
            ingest_matrix_csv(f)
        assert info.value.row == 3
        assert info.value.column == 1

    def test_needs_index_plus_data_columns(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1\n2\n")
        with pytest.raises(IngestError, match="block index"):
            ingest_matrix_csv(f)


# Files at the seams of the bulk parse, with what the cell-by-cell reader
# gives for each: the fast path must give the same names and values, or the
# same error, message, line and column.  A parsed file also says whether
# the bulk parse must take it (True); the scan takes what it leaves.
CSV_PARSES = [
    pytest.param("\n\na,b\n1,2\n3,4\n", ("a", "b"), [[1, 2], [3, 4]], True, id="blank-lines-before-header"),
    pytest.param("a,b\r\n1,2\r\n3,4\r\n", ("a", "b"), [[1, 2], [3, 4]], True, id="crlf"),
    pytest.param("a,b\r1,2\r3,4\r", ("a", "b"), [[1, 2], [3, 4]], True, id="cr-only"),
    pytest.param("a,b\n1,2\n   \n\t\n3,4\n", ("a", "b"), [[1, 2], [3, 4]], False, id="whitespace-only-rows"),
    pytest.param("a,b\n1,2\n , \n3,4\n", ("a", "b"), [[1, 2], [3, 4]], False, id="space-comma-space-row"),
    pytest.param('a,b\n"1.5",2\n3,"4"\n', ("a", "b"), [[1.5, 2], [3, 4]], False, id="quoted-cells"),
    pytest.param("a,b\n1_0,2\n3,4\n", ("a", "b"), [[10, 2], [3, 4]], False, id="underscore"),
    pytest.param("#a,#b\n1,2\n3,4\n", ("#a", "#b"), [[1, 2], [3, 4]], True, id="hash-header"),
    pytest.param("x\n1\n3\n", ("x",), [[1], [3]], True, id="one-column"),
    pytest.param("\ufeffa,b\n1,2\n3,4\n", ("a", "b"), [[1, 2], [3, 4]], True, id="bom-header"),
    pytest.param("\ufeff1,2\n3,4\n5,6\n", ("v1", "v2"), [[1, 2], [3, 4], [5, 6]], True, id="bom-numeric"),
    pytest.param("\ufeffa,b\n1_0,2\n3,4\n", ("a", "b"), [[10, 2], [3, 4]], False, id="bom-header-scan"),
    pytest.param("\ufeff1_0,2\n3,4\n5,6\n", ("v1", "v2"), [[10, 2], [3, 4], [5, 6]], False,
                 id="bom-numeric-scan"),
    pytest.param(" a , b \n 1 , 2 \n3\t,\t4\n", ("a", "b"), [[1, 2], [3, 4]], True, id="padded"),
    pytest.param("a,b\n\uff11,\u0662\n3,4\n", ("a", "b"), [[1, 2], [3, 4]], False, id="fullwidth-arabic-digits"),
]
CSV_ERRORS = [
    pytest.param("a,b\n1,2\n# note,x\n3,4\n", "non-numeric cell '# note' at line 3, column 1", 3, 1, id="hash-line"),
    pytest.param("a,b\n1,nan\n3,4\n", "non-finite cell 'nan' at line 2, column 2", 2, 2, id="nan"),
    pytest.param("1,2\n-Infinity,4\n", "non-finite cell '-Infinity' at line 2, column 1", 2, 1, id="infinity"),
    pytest.param("a,b\n", "{path} has a header but no data rows", None, None, id="header-only"),
    pytest.param("a,b\n1,2\n3\n", "line 3 has 1 cells, expected 2", 3, None, id="ragged"),
    pytest.param("a,b,c\n1,2\n3,4\n", "header has 3 names but line 2 has 2 cells", 2, None, id="wide-header"),
    pytest.param("a,b\n1,\n3,4\n", "non-numeric cell '' at line 2, column 2", 2, 2, id="empty-cell"),
    # numpy's parser takes \x1c-\x1f for whitespace, float() does not
    pytest.param("a,b\n\x1c1,2\n3,4\n", "non-numeric cell '1' at line 2, column 1", 2, 1, id="separator"),
]
MATRIX_PARSES = [
    pytest.param("t,c1,c2\n1,1,2\n1,3,4\n2,5,6\n2,7,8\n", id="header-row"),
    pytest.param("1,1,2\n1.0,3,4\n2.0,5,6\n2,7,8\n", id="float-indices"),
    pytest.param("\ufeff1,1,2\n1,3,4\n2,5,6\n2,7,8\n", id="bom"),
]
MATRIX_ERRORS = [
    pytest.param("t,a\n2,1.0\n1,2.0\n", "block index 1 at line 3 does not increase", 3, 1, id="decreasing"),
    pytest.param("1,1\n1,2\n2,3\n2,4\n1,5\n1,6\n", "block index 1 at line 5 does not increase", 5, 1, id="returns"),
    pytest.param("t,a\n1,1.0\n1,2.0\n2,3.0\n", "block 2 has 1 rows, expected 2", None, None, id="unequal"),
    pytest.param("1,1\n2,2\n2,3\n2,4\n", "block 2 has 3 rows, expected 1", None, None, id="unequal-dividing"),
    pytest.param("t,a\n1,1.0\nnan,2.0\n", "non-finite cell 'nan' at line 3, column 1", 3, 1, id="nan-index"),
]


def write_exact(path, text):
    """Write ``text`` with its line ends and byte-order mark untouched."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return path


class TestIngestSeams:
    @pytest.mark.parametrize("text, names, rows, bulk", CSV_PARSES)
    def test_csv_parses_as_the_cell_scan_did(self, tmp_path, text, names, rows, bulk):
        path = write_exact(tmp_path / "f.csv", text)
        panel = ingest_csv(path, demean_panel=False)
        assert panel.names == names
        assert panel.data.tobytes() == np.array(rows, dtype=float).tobytes()
        if bulk:
            assert tsfactor.io._bulk_rows(path) is not None

    @pytest.mark.parametrize("text, message, row, column", CSV_ERRORS)
    def test_csv_errors_as_the_cell_scan_did(self, tmp_path, text, message, row, column):
        path = write_exact(tmp_path / "f.csv", text)
        with pytest.raises(IngestError) as info:
            ingest_csv(path)
        assert (str(info.value), info.value.row, info.value.column) == (
            message.format(path=path), row, column
        )

    @pytest.mark.parametrize("text", MATRIX_PARSES)
    def test_matrix_parses_as_the_cell_scan_did(self, tmp_path, text):
        path = write_exact(tmp_path / "m.csv", text)
        panel = ingest_matrix_csv(path)
        assert panel.data.tobytes() == np.arange(1.0, 9.0).tobytes()
        assert panel.data.shape == (2, 2, 2)
        assert tsfactor.io._bulk_blocks(tsfactor.io._bulk_rows(path)[1]) is not None

    def test_matrix_scan_drops_a_byte_order_mark(self, tmp_path):
        path = write_exact(tmp_path / "m.csv", "\ufeff1,1,2\n1,3,4\n2,5,6\n2,7,8_0\n")
        assert tsfactor.io._bulk_rows(path) is None
        assert ingest_matrix_csv(path).data.ravel().tolist() == [1, 2, 3, 4, 5, 6, 7, 80]

    @pytest.mark.parametrize("text, message, row, column", MATRIX_ERRORS)
    def test_matrix_errors_as_the_cell_scan_did(self, tmp_path, text, message, row, column):
        with pytest.raises(IngestError) as info:
            ingest_matrix_csv(write_exact(tmp_path / "m.csv", text))
        assert (str(info.value), info.value.row, info.value.column) == (message, row, column)


# Cell grammar: signs, digits with underscores, a point, exponents (and
# Fortran's d), fullwidth and Arabic-Indic digits, special words, hex,
# empty and quoted cells, padded with ASCII or Unicode whitespace.  A file
# is plain decimals with up to two such cells, so that many files take the
# bulk parse and the odd cell decides whether the scan runs.
_SIGN = st.sampled_from(["", "+", "-"])
_PLAIN = st.builds(
    lambda *parts: "".join(parts),
    _SIGN, st.text("0123456789", min_size=1, max_size=3), st.sampled_from(["", ".", ".5"]),
    st.sampled_from(["", "e3", "E-2", "e+308"]),
)
_DIGITS = st.text("0123456789_", max_size=4) | st.text("\uff10\uff11\uff19\u0660\u0661\u0669", max_size=3)
_NUMBER = st.builds(
    lambda *parts: "".join(parts),
    _SIGN, _DIGITS, st.sampled_from(["", "."]), _DIGITS, st.sampled_from(["", "e", "E", "d"]), _SIGN, _DIGITS,
)
_WORD = st.sampled_from([
    "nan", "NaN", "-nan", "+inf", "-Inf", "Infinity", "-infinity", "iNfInItY", "nan(1)",
    "0x1p3", "0x10", "1d3", "", '"1.5"', '"-2e3"', "1e400", "4.9e-324", "2e-324",
])
_SPACE = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\u2003", "\u3000"])
_ODD_CELL = st.builds(lambda *parts: "".join(parts), _SPACE, _PLAIN | _NUMBER | _WORD, _SPACE)


def _ingest_outcome(path):
    try:
        panel = ingest_csv(path, demean_panel=False)
    except TsfactorError as err:
        return type(err), str(err), getattr(err, "row", None), getattr(err, "column", None)
    return panel.names, panel.data.shape, panel.data.tobytes()


@settings(max_examples=500)
@given(
    data=st.data(),
    header=st.booleans(),
    width=st.integers(1, 3),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
)
def test_bulk_parse_matches_the_cell_scan_on_the_cell_grammar(data, header, width, newline):
    rows = data.draw(st.lists(st.lists(_PLAIN, min_size=width, max_size=width), min_size=2, max_size=4))
    for _ in range(data.draw(st.integers(0, 2))):
        row, col = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, width - 1))
        rows[row][col] = data.draw(_ODD_CELL)
    lines = [[f"s{j}" for j in range(width)]] * header + rows
    with tempfile.TemporaryDirectory() as tmp:
        path = write_exact(Path(tmp) / "f.csv", "".join(",".join(r) + newline for r in lines))
        with mock.patch.object(tsfactor.io, "_bulk_rows", lambda path: None):
            scanned = _ingest_outcome(path)
        assert _ingest_outcome(path) == scanned


class TestSerialization:
    def test_loadings_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        loading = rng.standard_normal((9, 3))
        loading[0, 0] = 1e-300
        loading[1, 1] = -1.2345678901234567e300
        loading[2, 2] = 2.0 / 3.0
        f = tmp_path / "load.csv"
        write_loadings_csv(f, loading, [f"v{j}" for j in range(9)])
        back = read_loadings_csv(f)
        assert np.array_equal(back, loading)
        assert np.abs(back - loading).max() <= 1e-12

    def test_trace_kv_expands_arrays_and_roundtrips_floats(self, tmp_path):
        f = tmp_path / "trace.kv"
        write_trace_kv(
            f,
            [
                ("alpha", 0.1 + 0.2),
                ("count", 7),
                ("flag", True),
                ("name", "wauto"),
                ("ratio", np.array([1.5, 2.5])),
            ],
        )
        kv = read_kv(f)
        assert float(kv["alpha"]) == 0.1 + 0.2
        assert kv["count"] == "7"
        assert kv["flag"] == "true"
        assert kv["name"] == "wauto"
        assert float(kv["ratio_1"]) == 1.5 and float(kv["ratio_2"]) == 2.5


class TestCliEstimate:
    def test_artifacts_written_and_loadings_orthonormal(self, tmp_path, capsys):
        src = tmp_path / "panel.csv"
        write_panel_csv(src)
        out = tmp_path / "out"
        code = run([
            "estimate", str(src), "--out", str(out),
            "--method", "wauto", "--m", "2", "--q", "6",
        ])
        assert code == 0
        assert "r_hat=" in capsys.readouterr().out
        assert (out / "report.txt").exists()
        loading = read_loadings_csv(out / "result.csv")
        r = loading.shape[1]
        assert np.abs(loading.T @ loading - np.eye(r)).max() <= 1e-12
        kv = read_kv(out / "trace.kv")
        assert kv["command"] == "estimate"
        assert int(kv["r_hat"]) == r
        assert kv["q_used"] == "6"
        factors = np.loadtxt(out / "factors.csv", delimiter=",", skiprows=1)
        assert factors.reshape(90, -1).shape == (90, r)

    def test_rerun_is_byte_identical(self, tmp_path):
        src = tmp_path / "panel.csv"
        write_panel_csv(src)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["estimate", str(src), "--out", str(out), "--q", "6"]) == 0
            outs.append(out)
        for artifact in ("report.txt", "result.csv", "trace.kv", "factors.csv"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_fixed_rank_and_no_demean_flags(self, tmp_path):
        raw = tmp_path / "raw.csv"
        write_panel_csv(raw, p=6, n=60)
        centered = tmp_path / "centered.csv"
        panel = ingest_csv(raw)
        with open(centered, "w") as fh:
            for row in panel.data:
                fh.write(",".join(fmt_float(v) for v in row) + "\n")
        out = tmp_path / "out"
        code = run([
            "estimate", str(centered), "--out", str(out),
            "--no-demean", "--method", "cov", "--r", "2",
        ])
        assert code == 0
        assert read_loadings_csv(out / "result.csv").shape == (6, 2)
        # uncentered input with --no-demean is rejected as invalid data
        assert run([
            "estimate", str(raw), "--out", str(out), "--no-demean",
        ]) == 4


    def test_config_file_sets_q0_and_no_demean(self, tmp_path):
        raw = tmp_path / "raw.csv"
        write_panel_csv(raw, p=12, n=90)
        centered = tmp_path / "centered.csv"
        with open(centered, "w") as fh:
            for row in ingest_csv(raw).data:
                fh.write(",".join(fmt_float(v) for v in row) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"q0": 4, "no_demean": true}')

        def artifacts(name, *args):
            out = tmp_path / name
            assert run(["estimate", str(centered), *args, "--out", str(out)]) == 0
            return [(out / a).read_bytes() for a in ("report.txt", "result.csv", "trace.kv")]

        from_flags = artifacts("flags", "--q0", "4", "--no-demean")
        assert artifacts("file", "--config", str(cfg)) == from_flags
        assert int(read_kv(tmp_path / "file" / "trace.kv")["q_used"]) <= 4
        # a flag beats the file
        assert artifacts("both", "--config", str(cfg), "--q0", "6") == artifacts(
            "flags6", "--q0", "6", "--no-demean"
        )
        # the file's no_demean holds: uncentered input is rejected as invalid data
        assert run(["estimate", str(raw), "--config", str(cfg), "--out", str(tmp_path / "x")]) == 4


class TestCliErrors:
    def test_ingest_errors_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3,NA\n")
        assert run(["estimate", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert "line 3, column 2" in capsys.readouterr().err
        assert run(["estimate", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o")]) == 3

    def test_invalid_config_exits_5(self, tmp_path):
        src = tmp_path / "panel.csv"
        write_panel_csv(src, p=8, n=40)
        assert run(["estimate", str(src), "--out", str(tmp_path / "o"), "--q", "200"]) == 5

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run(["estimate"])  # missing input path
        assert info.value.code == 2

    def test_unknown_config_key_exits_5(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}')
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 5

    def test_malformed_config_file_exits_5(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json")
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 5

    @pytest.mark.parametrize(
        "key, value",
        [
            ("m", 2.5),
            ("q0", [3]),
            ("m", "abc"),
            ("no_demean", "yes"),
            ("no_demean", 1),
            ("m", True),
            ("m", None),
            ("bic_c", False),
            ("method", "pca"),
            ("method", 1),
            ("q", 2.0),
            ("q", "many"),
            ("vartheta_scale", {}),
        ],
    )
    def test_config_value_of_the_wrong_kind_exits_5(self, tmp_path, capsys, key, value):
        src = tmp_path / "panel.csv"
        write_panel_csv(src, p=8, n=40)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run(["estimate", str(src), "--config", str(cfg), "--out", str(tmp_path / "o")]) == 5
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, flags",
        [
            ({"q0": "4"}, ["--q0", "4"]),
            ({"q0": 4}, ["--q0", "4"]),
            ({"bic_c": 1}, ["--bic-c", "1"]),
            ({"q0": None}, []),
            ({"q": "3", "method": "cov"}, ["--q", "3", "--method", "cov"]),
            ({"no_demean": False, "vartheta_scale": 0.2}, ["--vartheta-scale", "0.2"]),
        ],
    )
    def test_config_values_apply_like_flags(self, tmp_path, entry, flags):
        src = tmp_path / "panel.csv"
        write_panel_csv(src, p=8, n=40)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))

        def artifacts(name, *args):
            out = tmp_path / name
            assert run(["estimate", str(src), *args, "--out", str(out)]) == 0
            return [(out / a).read_bytes() for a in ("report.txt", "result.csv", "trace.kv")]

        assert artifacts("file", "--config", str(cfg)) == artifacts("flags", *flags)


class TestCliSimulate:
    ARGS = [
        "simulate", "--model", "uniform", "--p", "15", "--n", "80",
        "--delta0", "1", "--runs", "3", "--seed", "1",
    ]

    def test_thread_count_does_not_change_artifacts(self, tmp_path):
        outs = []
        for name, threads in (("t1", "1"), ("t3", "3")):
            out = tmp_path / name
            code = run(self.ARGS + ["--threads", threads, "--out", str(out)])
            assert code == 0
            outs.append(out)
        for artifact in ("report.txt", "result.csv", "trace.kv"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_result_rows_cover_every_run_and_method(self, tmp_path):
        out = tmp_path / "out"
        assert run(self.ARGS + ["--out", str(out)]) == 0
        lines = (out / "result.csv").read_text().splitlines()
        assert lines[0] == "run,method,r_hat,distance,error"
        assert len(lines) == 1 + 3 * 3
        kv = read_kv(out / "trace.kv")
        assert kv["rng"] == "pcg64"
        assert kv["runs"] == "3"
        assert "freq_correct_wauto" in kv

    def test_config_file_fills_options_and_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"p": 12, "n": 60, "runs": 2, "seed": 3, "method": "cov"}')
        out = tmp_path / "out"
        code = run([
            "simulate", "--config", str(cfg), "--p", "14", "--out", str(out),
        ])
        assert code == 0
        kv = read_kv(out / "trace.kv")
        assert kv["p"] == "14"  # flag beats config
        assert kv["n"] == "60"  # config beats default
        assert kv["seed"] == "3"
        assert "freq_correct_cov" in kv and "freq_correct_wauto" not in kv


class TestCliForecastAndSelectQ:
    def test_forecast_reports_method_and_zero_baseline(self, tmp_path):
        src = tmp_path / "panel.csv"
        write_panel_csv(src, p=6, n=110)
        out = tmp_path / "out"
        code = run([
            "forecast", str(src), "--out", str(out),
            "--method", "cov", "--h", "1", "--r", "1", "--n1", "90",
        ])
        assert code == 0
        lines = (out / "result.csv").read_text().splitlines()
        assert lines[0] == "method,mafe,msfe,failed"
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels == ["cov", "zero"]
        kv = read_kv(out / "trace.kv")
        assert kv["n1"] == "90" and kv["n2"] == "20"
        assert kv["standardize"] == "global"
        assert float(kv["msfe_cov"]) > 0

    def test_forecast_per_window_flag_switches_mode(self, tmp_path):
        src = tmp_path / "panel.csv"
        write_panel_csv(src, p=6, n=110)
        out = tmp_path / "out"
        code = run([
            "forecast", str(src), "--out", str(out), "--method", "cov",
            "--h", "1", "--r", "1", "--n1", "95", "--standardize-per-window",
        ])
        assert code == 0
        assert read_kv(out / "trace.kv")["standardize"] == "train"

    def test_select_q_artifacts_are_consistent(self, tmp_path):
        src = tmp_path / "panel.csv"
        write_panel_csv(src, p=12, n=150)
        out = tmp_path / "out"
        assert run(["select-q", str(src), "--out", str(out), "--q0", "8"]) == 0
        kv = read_kv(out / "trace.kv")
        q_hat = int(kv["q_hat"])
        candidates = sorted(
            int(v) for k, v in kv.items() if k.startswith("candidate_")
        )
        assert q_hat in candidates
        assert candidates[-1] == 8
        loading = read_loadings_csv(out / "result.csv")
        assert loading.shape == (12, int(kv["r_hat"]))


class TestCliMatrix:
    def test_matrix_estimate_writes_both_bases(self, tmp_path):
        src = tmp_path / "mat.csv"
        write_matrix_csv(src, n=60, p1=5, p2=4)
        out = tmp_path / "out"
        code = run([
            "matrix-estimate", str(src), "--out", str(out),
            "--d1", "2", "--d2", "1", "--q1", "4", "--q2", "3",
        ])
        assert code == 0
        rows = (out / "result.csv").read_text().splitlines()
        assert rows[0] == "side,row,col,value"
        r_cells = [r for r in rows[1:] if r.startswith("R,")]
        c_cells = [r for r in rows[1:] if r.startswith("C,")]
        assert len(r_cells) == 5 * 2
        assert len(c_cells) == 4 * 1
        kv = read_kv(out / "trace.kv")
        assert kv["d1"] == "2" and kv["d2"] == "1"
        assert float(kv["row_spectrum_1"]) >= float(kv["row_spectrum_2"])


def test_console_script_runs_end_to_end(tmp_path):
    exe = shutil.which("tsfactor")
    assert exe is not None, "console script should be installed with the package"
    out = tmp_path / "out"
    proc = subprocess.run(
        [
            exe, "simulate", "--model", "uniform", "--p", "15", "--n", "60",
            "--delta0", "1", "--runs", "2", "--seed", "4", "--method", "cov",
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "monte carlo study" in proc.stdout
    assert (out / "trace.kv").exists()


def test_default_q_ceiling_fits_a_short_wide_panel(tmp_path):
    # n=12, p=40, m=2: the lag-2 regression has 10 rows, so the default
    # ceiling must be derived from the panel rather than fixed at 15.
    src = tmp_path / "short.csv"
    write_panel_csv(src, p=40, n=12)
    assert run(["estimate", str(src), "--out", str(tmp_path / "e")]) == 0
    assert int(read_kv(tmp_path / "e" / "trace.kv")["q_used"]) <= 10
    assert run(["select-q", str(src), "--out", str(tmp_path / "s")]) == 0
    assert "q0=10" in (tmp_path / "s" / "report.txt").read_text()
    # an explicit ceiling is still validated as given
    assert run(["estimate", str(src), "--out", str(tmp_path / "x"), "--q0", "12"]) == 5


def test_matrix_degenerate_spectrum_exits_9(tmp_path):
    # Rows (u_t, v_t) whose lag-1 autocovariance has an exactly zero v-row:
    # with no ratio offset the row rank rule divides by a zero eigenvalue.
    src = tmp_path / "degenerate.csv"
    u = [1.0, 0.0, -2.0, 0.5, 0.5]
    v = [1.0, 0.0, -1.0, 0.0, 0.0]
    src.write_text("".join(f"{t + 1},{u[t]}\n{t + 1},{v[t]}\n" for t in range(5)))
    args = ["matrix-estimate", str(src), "--m", "1", "--d2", "1"]
    assert run(args + ["--vartheta-scale", "0", "--out", str(tmp_path / "a")]) == 9
    assert run(args + ["--out", str(tmp_path / "b")]) == 0


@pytest.mark.parametrize("scale", [1e9, 1e12])
def test_matrix_estimate_fits_large_scale_data(tmp_path, scale):
    src = tmp_path / "big.csv"
    write_matrix_csv(src, n=60, p1=5, p2=4, scale=scale)
    assert run(["matrix-estimate", str(src), "--d1", "1", "--d2", "1", "--out", str(tmp_path / "o")]) == 0


def test_matrix_estimate_default_q_fits_a_short_series(tmp_path):
    src = tmp_path / "short.csv"
    write_matrix_csv(src, n=12, p1=20, p2=4)
    assert run(["matrix-estimate", str(src), "--out", str(tmp_path / "o")]) == 0
    kv = read_kv(tmp_path / "o" / "trace.kv")
    assert (kv["q1"], kv["q2"]) == ("11", "4")


def test_lag_count_of_n_exits_5_on_estimate_and_matrix_estimate(tmp_path):
    panel = tmp_path / "panel.csv"
    write_panel_csv(panel, p=6, n=10)
    blocks = tmp_path / "blocks.csv"
    write_matrix_csv(blocks, n=10, p1=3, p2=2)
    assert run(["estimate", str(panel), "--method", "auto", "--m", "10", "--out", str(tmp_path / "e")]) == 5
    assert run(["matrix-estimate", str(blocks), "--m", "10", "--out", str(tmp_path / "a")]) == 5
    assert run(["estimate", str(panel), "--method", "auto", "--m", "9", "--out", str(tmp_path / "f")]) == 0
    assert run(["matrix-estimate", str(blocks), "--m", "9", "--out", str(tmp_path / "b")]) == 0


def test_q_beyond_the_lag_regression_rows_exits_5(tmp_path):
    src = tmp_path / "short.csv"
    write_panel_csv(src, p=40, n=12)
    args = ["estimate", str(src), "--method", "wauto", "--m", "2"]
    assert run(args + ["--q", "11", "--out", str(tmp_path / "a")]) == 5
    assert run(args + ["--q", "10", "--out", str(tmp_path / "b")]) == 0


def test_lag_count_at_the_sample_size_exits_5_on_both_commands(tmp_path):
    src = tmp_path / "short.csv"
    write_panel_csv(src, p=40, n=12)
    for command in ("estimate", "select-q"):
        args = [command, str(src), "--m", "12", "--q0", "3", "--out", str(tmp_path / command)]
        assert run(args) == 5


@pytest.mark.parametrize("method", ["cov", "auto", "wauto"])
def test_data_scaled_by_1e200_exits_4_on_every_method(tmp_path, method):
    # the lag products overflow; auto's per-lag SVD used to raise numpy's LinAlgError
    spec = SimulationSpec(model="twostrength", n=200, p=100, r0=2, r1=2, delta1=0.5)
    src = tmp_path / "huge.csv"
    np.savetxt(src, 1e200 * generate_two_strength(spec, 0)[0].data, delimiter=",", fmt="%.17g")
    assert run(["estimate", str(src), "--method", method, "--out", str(tmp_path / "o")]) == 4


def test_auto_exits_4_on_data_scaled_by_1e140_without_a_numpy_warning(tmp_path, capsys):
    # the lag products fit, but auto's spectra carry the scale to the fourth power
    # and overflow
    src = tmp_path / "huge.csv"
    np.savetxt(src, 1e140 * np.random.default_rng(0).standard_normal((200, 100)), delimiter=",")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["estimate", str(src), "--method", "auto", "--out", str(tmp_path / "o")]) == 4
    assert "the data are too large" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    pytest.param("estimate", b"a,b\n1,2\n3,\xff4\n5,6\n", id="estimate"),
    pytest.param("matrix-estimate", b"1,1,2\n1,3,4\n2,5,\xff6\n2,7,8\n", id="matrix-estimate"),
])
def test_undecodable_csv_exits_3_naming_the_file(tmp_path, capsys, command, text):
    src = tmp_path / "latin.csv"
    src.write_bytes(text)
    assert run([command, str(src), "--out", str(tmp_path / "o")]) == 3
    assert f"{src} is not UTF-8 text" in capsys.readouterr().err


def test_matrix_estimate_exits_4_on_data_scaled_by_1e200(tmp_path):
    src = tmp_path / "huge.csv"
    write_matrix_csv(src, n=60, p1=5, p2=4, scale=1e200)
    assert run(["matrix-estimate", str(src), "--out", str(tmp_path / "o")]) == 4
