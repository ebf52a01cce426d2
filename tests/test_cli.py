"""End-to-end CLI behavior: flags, formats, exit codes, determinism.

Everything runs through ``main(argv)`` with ``--out`` files so the suite
stays independent of pytest's capture mode; subprocess tests cover the
``python -m`` entry point and outputs that cannot be written.
"""

import csv
import dataclasses
import io
import json
import math
import os
import resource
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import subvacuum.state_families as sf
from subvacuum import fock_oracle
from subvacuum.cli import (
    FAMILY_NAMES,
    SEARCH_FAMILY_NAMES,
    SWEEP_BLOCK,
    UsageError,
    _fmt,
    _parse_geometry,
    main,
    parse_real,
)
from subvacuum.energy_density import density_profile
from subvacuum.state_families import squeezed_vacuum_moments

F_RIDGE = 0.2784645427610738


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def cell_by_cell(header, rows):
    """Reference CSV text: csv.writer over ``_fmt`` of every cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(cell) for cell in row] for row in rows)
    return buf.getvalue()


def traced_peak(argv):
    """The traced memory peak of ``main(argv)``, which must succeed."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def strict_json(text):
    """``text`` parsed as JSON, failing on NaN and infinity tokens."""
    return json.loads(text, parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))


@pytest.fixture
def quiet_stderr(monkeypatch, tmp_path):
    """Send CLI error chatter to a file and hand back a reader for it."""
    sink = tmp_path / "stderr.txt"
    handle = open(sink, "w")
    monkeypatch.setattr(sys, "stderr", handle)

    def reader():
        handle.flush()
        return sink.read_text()

    yield reader
    handle.close()


class TestParseReal:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0.99pi", 0.99 * math.pi),
            ("-pi", -math.pi),
            ("pi", math.pi),
            ("+pi", math.pi),
            ("2PI", 2.0 * math.pi),
            ("1.5e-3", 0.0015),
            (" 42 ", 42.0),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_real(text) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("text", ["", "abc", "1.2.3pi", "--", "inf", "-inf", "nan", "infpi", "1e308pi"])
    def test_rejects(self, text):
        with pytest.raises(UsageError):
            parse_real(text)


class TestSweep:
    def test_one_mode_csv_roundtrip(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--family",
                "squeezed-vacuum",
                "--sweep",
                "r=0:2:4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["r", "n", "R", "F"]
        assert len(rows) == 5
        for cells in rows:
            r = float(cells[0])
            m = squeezed_vacuum_moments(r, 0.0)
            # cells reproduce the 9-significant-digit rendering exactly
            assert float(cells[1]) == float(f"{m.n1:.9g}")
            assert float(cells[2]) == float(f"{m.R1:.9g}")
            assert float(cells[3]) == float(f"{m.excess:.9g}")

    def test_large_r_excess_cells_keep_nine_digits(self, tmp_path):
        # (1 - e^{-2r}) / 2 at r = 9, 9.5, 10, rounded from 50-digit values;
        # the moments there are ~1e8, so sinh*cosh - sinh^2 would print
        # 0.499999993, 0.499999993, 0.5.
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", "squeezed-vacuum", "--sweep", "r=9:10:2", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [cells[3] for cells in rows] == ["0.499999992", "0.499999997", "0.499999999"]

    @pytest.mark.parametrize(
        "family,sets,expected",
        [
            # F of N(|r> - |0>) and N(|r> + |0>) at r = 10, 15, 20, rounded from
            # 50-digit values; pair_mag - n printed ..., 0.249755859, 0 and
            # ..., 0.250244141, 0.
            ("vacuum-squeezed", [], ["0.247594857", "0.249804302", "0.249983948"]),
            ("coherent-squeezed", ["--set", "alpha=0"], ["0.252359738", "0.250195392", "0.25001605"]),
            # At eta = 0 the state is the squeezed vacuum, F = -expm1(-2r)/2;
            # pair_mag - n printed 0.5, 0.5, 0.
            ("superposed-squeezed", [], ["0.499999999", "0.5", "0.5"]),
        ],
    )
    def test_squeezed_superposition_excess_cells_at_deep_squeeze(self, tmp_path, family, sets, expected):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", family, *sets, "--sweep", "r=10:20:2", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [cells[3] for cells in rows] == expected

    @pytest.mark.parametrize(
        "argv,expected",
        [
            # Beside the zero-norm state the limits are the two-photon state
            # (n = 2), n1 = 1 and sigma^2 coth 2 sigma^2 = 0.5; the cells once
            # printed 2.00026632, 1.00002212 and 0.499997183.
            (["--family", "superposed-squeezed", "--set", "eta=-1", "--sweep", "r=1e-6:1e-6:1"], {"n": "2", "F": "-2"}),
            (["--family", "zhang", "--set", "theta=pi", "--sweep", "r=1e-6:1e-6:1"], {"n1": "1", "n2": "1", "F": "-1"}),
            (
                ["--family", "entangled-coherent", "--set", "theta=pi", "--sweep", "sigma=1e-6:1e-6:1"],
                {"n1": "0.5", "n2": "0.5", "R3": "0.5", "F": "-0.5"},
            ),
        ],
    )
    def test_cells_beside_a_degenerate_superposition_keep_their_digits(self, tmp_path, argv, expected):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        for cells in rows:
            assert {key: cells[header.index(key)] for key in expected} == expected

    def test_entangled_coherent_excess_cells_are_its_closed_form(self, tmp_path):
        # 2 sigma^2 cos(theta) e^{-4 sigma^2} / (1 + cos(theta) e^{-4 sigma^2})
        # at theta = pi, rounded from 50-digit values; sigma^2 - n1 printed
        # -3.55271368e-15 at sigma = 3 and 0 at sigma = 3.5 and 4.
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", "entangled-coherent", "--set", "theta=pi", "--sweep", "sigma=2:4:4",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [cells[-1] for cells in rows] == [
            "-9.00281499e-07", "-1.73599298e-10", "-4.17514109e-15", "-1.28450699e-20", "-5.13219485e-27"
        ]
        # an F of zero prints 0, never -0
        assert main(["sweep", "--family", "entangled-coherent", "--set", "theta=2", "--sweep", "sigma=0:1:2",
                     "--out", str(out)]) == 0
        assert read_csv(out)[1][0] == ["0", "0", "0", "0", "0", "0", "0", "0"]

    def test_degenerate_point_leaves_cells_empty(self, tmp_path):
        out = tmp_path / "zhang.csv"
        code = main(
            [
                "sweep",
                "--family",
                "zhang",
                "--set",
                "theta=pi",
                "--sweep",
                "r=0:0.02:2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["r", "n1", "n2", "R1", "R2", "R3", "R4", "F"]
        assert rows[0] == ["0", "", "", "", "", "", "", ""]
        assert all(cell != "" for cell in rows[1])

    @pytest.mark.parametrize(
        "argv,empty",
        [
            (["--family", "superposed-squeezed", "--set", "eta=1", "--set", "eta_phase=pi", "--sweep", "r=0:1:4"], 0),
            (["--family", "zhang", "--set", "r=0", "--sweep", "theta=0:2pi:4"], 2),
        ],
    )
    def test_degenerate_row_inside_a_batch_is_empty(self, tmp_path, argv, empty):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 5
        for i, cells in enumerate(rows):
            assert (set(cells[1:]) == {""}) == (i == empty)

    def test_rows_next_to_the_vacuum_squeezed_corner(self, tmp_path):
        # eta = -0.9999999: r = 0 is the vacuum and r = 2.5e-7 leaves a
        # denominator of 4e-14, both below the degenerate threshold, so both
        # rows are blank; r = 5e-7 keeps n = 1/0.54 from the denominator
        # 1.35e-13.
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--family", "vacuum-squeezed", "--set", "eta=-0.9999999", "--sweep", "r=0:1e-6:4"]
        assert main([*argv, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0] == ["0", "", "", ""] and rows[1] == ["2.5e-07", "", "", ""]
        assert rows[2][:2] == ["5e-07", "1.85185202"]

    def test_coherent_squeezed_two_photon_limit_prints_two(self, tmp_path):
        # alpha = 0, eta = -1, r = 1e-6: n = 2 + 1.25 r^2, the two-photon limit.
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--family", "coherent-squeezed", "--set", "alpha=0", "--set", "eta=-1", "--sweep", "r=1e-6:1e-6:1"]
        assert main([*argv, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [cells[:2] for cells in rows] == [["1e-06", "2"], ["1e-06", "2"]]

    def test_row_template_matches_cell_formatting(self, capsys):
        # Float rows go through one "%.9g" template per command; it must
        # print what the per-cell formatter prints, -0.0 included.
        assert main(["sweep", "--family", "squeezed-vacuum", "--set", "r=-0", "--sweep", "delta=0:1:2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert _fmt(-0.0) == "%.9g" % -0.0 == "-0"
        assert lines == ["delta,n,R,F", "0,0,0,-0", "0.5,0,0,-0", "1,0,0,-0"]

    def test_blocks_match_cell_by_cell_reference(self, tmp_path):
        # theta = pi, the one degenerate row, opens the second block.
        argv = ["sweep", "--family", "zhang", "--set", "r=0", "--sweep", f"theta=0:2pi:{2 * SWEEP_BLOCK}"]
        out, doc = tmp_path / "sweep.csv", tmp_path / "sweep.json"
        assert main([*argv, "--out", str(out)]) == 0
        assert main([*argv, "--format", "json", "--out", str(doc)]) == 0
        rows = [list(row.values()) for row in json.loads(doc.read_text())["rows"]]
        assert [i for i, row in enumerate(rows) if row[1] is None] == [SWEEP_BLOCK]
        expected = cell_by_cell(["theta", "n1", "n2", "R1", "R2", "R3", "R4", "F"], rows)
        assert out.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("past_block", [-1, 0, 1], ids=["block-1", "block", "block+1"])
    @pytest.mark.parametrize(
        "family,sets,sweep",
        [
            ("coherent-pair", [], "delta2=-pi:pi"),
            ("entangled-coherent", [], "sigma=0:2"),
            ("ecs-f", [], "sigma=0:3"),
            # eta = -1: the r = 0 row is the vacuum minus itself, degenerate
            ("vacuum-squeezed", ["--set", "eta=-1"], "r=0:1"),
        ],
        ids=["one-mode", "two-mode", "scalar", "degenerate"],
    )
    def test_rows_match_one_batch_reference(self, tmp_path, monkeypatch, family, sets, sweep, past_block):
        # Rows are evaluated and formatted per block (64 rows here, to keep
        # the sweeps short); the output must be what one closed-form batch
        # of the whole sweep prints through json.dumps(doc, indent=2) and
        # cell by cell in CSV.
        monkeypatch.setattr("subvacuum.cli.SWEEP_BLOCK", 64)
        steps = 64 + past_block
        argv = ["sweep", "--family", family, *sets, "--sweep", f"{sweep}:{steps}"]
        out, doc_path = tmp_path / "sweep.csv", tmp_path / "sweep.json"
        assert main([*argv, "--out", str(out)]) == 0
        assert main([*argv, "--format", "json", "--out", str(doc_path)]) == 0
        text = doc_path.read_text(encoding="utf-8")

        fam = sf.REGISTRY[family]
        doc = strict_json(text)
        key, params = doc["config"]["sweep"]["key"], doc["config"]["params"]
        values = np.linspace(doc["config"]["sweep"]["lo"], doc["config"]["sweep"]["hi"], steps + 1)
        m = fam.moments(fam.record({**params, key: values}))
        table = np.column_stack(np.broadcast_arrays(values, *fam.layout.cells(m))).tolist()
        degenerate = np.broadcast_to(getattr(m, "degenerate", False), values.shape).tolist()
        rows = [row[:1] + [None] * (len(row) - 1) if flag else row for row, flag in zip(table, degenerate)]
        assert any(degenerate) == (family == "vacuum-squeezed")
        header = [key, *fam.layout.columns]
        doc["rows"] = [dict(zip(header, row)) for row in rows]
        assert text == json.dumps(doc, indent=2) + "\n"
        assert out.read_text(encoding="utf-8") == cell_by_cell(header, rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_traced_peak_grows_by_the_table_per_row(self, tmp_path, monkeypatch, fmt):
        # Per added row the traced peak grows by at most a row's parameter
        # value, cells and degenerate flag (65 B for a two-mode family), not
        # by whole-sweep temporaries: one batch of the whole sweep grew by
        # ~250 B per row, and JSON built as one dict per row by ~2.1 KB.
        # At sigma = 0 (the vacuum) every row prints the same cells, so the
        # peak's per-block part is the same in both sweeps; 256-row blocks
        # keep it small.
        monkeypatch.setattr("subvacuum.cli.SWEEP_BLOCK", 256)

        def peak(steps):
            argv = ["sweep", "--family", "entangled-coherent", "--set", "sigma=0", "--sweep", f"delta1=1:3:{steps}"]
            return traced_peak([*argv, "--format", fmt, "--out", str(tmp_path / f"sweep-{steps}.{fmt}")])

        small, large = 512, 512 + 8192
        table_bytes_per_row = 8 * (1 + len(sf.TWO_MODE.columns))
        assert (peak(large) - peak(small)) / (large - small) <= 1.1 * table_bytes_per_row

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_traced_peak_is_bounded_in_the_sweep_length(self, tmp_path, monkeypatch, fmt):
        # Each block is evaluated, checked and formatted in turn, so the
        # parameter values (8 B per step) are the sweep's only full-length
        # array.  A table of every row's cells and degenerate flag, held to
        # check the whole sweep before any output, grew the peak by 65 B per
        # step.  Blocks and sweeps are 1/8 of 2,048-row blocks over 20,000
        # and 400,000 steps: the same blocks per sweep, so the same share of
        # the growth comes from one block's text, at 1/8 of the traced cost.
        monkeypatch.setattr("subvacuum.cli.SWEEP_BLOCK", 256)
        out = tmp_path / f"sweep.{fmt}"

        def peak(steps):
            argv = ["sweep", "--family", "entangled-coherent", "--sweep", f"sigma=0:2:{steps}", "--format", fmt]
            return traced_peak([*argv, "--out", str(out)])

        small, large = 2_500, 50_000
        assert (peak(large) - peak(small)) / (large - small) < 12.0

    def test_pi_suffix_reaches_the_sweep_axis(self, tmp_path):
        out = tmp_path / "axis.csv"
        code = main(
            [
                "sweep",
                "--family",
                "coherent-pair",
                "--sweep",
                "delta2=0:pi:2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert [cells[0] for cells in rows] == ["0", "1.57079633", "3.14159265"]

    def test_scalar_family_sweep(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["sweep", "--family", "ecs-f", "--sweep", "sigma=0:3:3", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["sigma", "f"]
        assert rows[0] == ["0", "0"]

    def test_json_document_shape(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                "--family",
                "zhang",
                "--set",
                "theta=pi",
                "--sweep",
                "r=0:0.02:2",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "sweep"
        assert doc["seed"] is None
        assert doc["config"]["family"] == "zhang"
        assert doc["config"]["sweep"] == {"key": "r", "lo": 0.0, "hi": 0.02, "steps": 2}
        assert len(doc["rows"]) == 3
        # degenerate point serializes as nulls, not placeholder numbers
        assert doc["rows"][0]["n1"] is None
        assert doc["rows"][1]["n1"] is not None

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--family", "squeezed-vacuum", "--sweep", "r0:1:4"], "--sweep expects key=lo:hi:steps"),
            (["sweep", "--family", "squeezed-vacuum", "--sweep", "r=0:1"], "--sweep range must be lo:hi:steps"),
            (["sweep", "--family", "squeezed-vacuum", "--sweep", "r=0:1:0"], "sweep steps must be >= 1"),
            (["sweep", "--family", "squeezed-vacuum", "--sweep", "q=0:1:4"], "unknown sweep parameter 'q'"),
            (["sweep", "--family", "squeezed-vacuum", "--sweep", "r=0:1:x"], "sweep steps must be an integer"),
            (["sweep", "--family", "squeezed-vacuum", "--sweep", "r=0:1:4", "--set", "bogus=1"],
             "unknown parameter 'bogus'"),
            (["sweep", "--family", "squeezed-vacuum", "--sweep", "r=0:1:4", "--set", "delta"],
             "--set expects key=value"),
            (["sweep", "--family", "coherent-pair", "--sweep", "alpha=0:nan:2"], "number must be finite"),
            (["sweep", "--family", "zhang", "--set", "r=5", "--sweep", "r=0:1:1"], "parameter r is both --set and swept"),
            (["search", "--family", "coherent-pair", "--starts", "1", "--seed", "-1"], "--seed must be >= 0"),
            (["verify", "--draws", "-1"], "--draws and --seed must be >= 0"),
            (["verify", "--seed", "-1"], "--draws and --seed must be >= 0"),
            (["verify", "--cutoff", "0"], "--cutoff must be >= 1"),
            (["verify", "--cutoff", "-1"], "--cutoff must be >= 1"),
        ],
    )
    def test_usage_errors_exit_1(self, argv, message, quiet_stderr):
        # Each case is caught by its own check, which the message names.
        assert main(argv) == 1
        assert f"subvacuum {argv[0]}: error: {message}" in quiet_stderr()

    def test_key_both_set_and_swept_prints_one_line_and_no_output(self, capsys):
        # The config would report the --set value while the rows vary it.
        assert main(["sweep", "--family", "zhang", "--set", " r =5", "--sweep", "r=0:1:1", "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "subvacuum sweep: error: parameter r is both --set and swept\n"

    def test_unknown_family_exits_1(self, quiet_stderr):
        assert main(["sweep", "--family", "thermal", "--sweep", "r=0:1:4"]) == 1
        assert "usage" in quiet_stderr()

    @pytest.mark.parametrize(
        "family,sweep",
        [("squeezed-vacuum", "r=-1:1:2"), ("entangled-coherent", "sigma=-1:0:2")],
    )
    def test_out_of_domain_sweep_exits_1(self, family, sweep, quiet_stderr):
        assert main(["sweep", "--family", family, "--sweep", sweep]) == 1
        assert "must be >= 0" in quiet_stderr()

    def test_overflow_exits_3_without_inf_cells(self, capsys):
        code = main(["sweep", "--family", "barnett-radmore", "--sweep", "r=0:400:2"])
        captured = capsys.readouterr()
        assert code == 3
        assert "inf" not in captured.out
        assert "numeric failure" in captured.err

    def test_overflow_leaves_no_out_file(self, tmp_path, quiet_stderr):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", "barnett-radmore", "--sweep", "r=0:400:2", "--out", str(out)]) == 3
        assert "numeric failure" in quiet_stderr()
        assert not out.exists()

    def test_python_overflow_exits_3(self, capsys):
        # abs(alpha) ** 2 raises OverflowError on a Python float.
        code = main(["sweep", "--family", "coherent-pair", "--sweep", "alpha=0:1e200:2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "numeric failure: non-finite result at alpha=5e+199" in captured.err
        # math.sinh overflows past r = 710.
        assert main(["sweep", "--family", "vacuum-squeezed", "--sweep", "r=750:1000:1"]) == 3
        assert "numeric failure: non-finite result at r=750" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv,where",
        [
            # The first non-finite row, where the row-by-row sweep reported it.
            (["--family", "barnett-radmore", "--sweep", "r=300:400:1000"], "r=355.6"),
            # (F is |<a^2>| - n here, finite until sinh^2 r overflows)
            (["--family", "superposed-squeezed", "--set", "eta=0.7", "--sweep", "r=0:400:1000"], "r=355.6"),
            (["--family", "coherent-squeezed", "--sweep", "r=0:800:1000"], "r=356"),
            (["--family", "vacuum-squeezed", "--sweep", "r=700:720:200"], "r=700"),
            (["--family", "zhang", "--sweep", "r=0:400:2"], "r=400"),
            (["--family", "entangled-coherent", "--sweep", "sigma=0:1e160:4"], "sigma=2.5e+159"),
            (["--family", "ecs-f", "--sweep", "sigma=0:1e200:4"], "sigma=2.5e+199"),
            # row 3556, in the fourth block: the blocks before it print nothing
            (["--family", "barnett-radmore", "--sweep", "r=0:400:4000"], "r=355.6"),
        ],
    )
    def test_overflow_row_is_reported_at_its_value(self, argv, where, capsys):
        assert main(["sweep", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"subvacuum sweep: numeric failure: non-finite result at {where}\n"

    @pytest.mark.parametrize("family", ["barnett-radmore", "superposed-squeezed", "zhang"])
    def test_overflow_prints_one_line_and_no_numpy_warning(self, family, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sweep", "--family", family, "--sweep", "r=0:400:2"])
        assert code == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.splitlines() == ["subvacuum sweep: numeric failure: non-finite result at r=400"]


class TestSearch:
    def test_csv_is_rank_ordered_and_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["search", "--family", "coherent-pair", "--starts", "4", "--seed", "42"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        header, rows = read_csv(a)
        assert header[:9] == [
            "rank",
            "members",
            "iterations",
            "converged",
            "grad_norm",
            "F",
            "n",
            "R",
            "gamma",
        ]
        assert header[9:] == ["alpha", "beta", "eta", "delta2", "delta"]
        ranks = [int(cells[0]) for cells in rows]
        assert ranks == list(range(1, len(rows) + 1))
        values = [float(cells[5]) for cells in rows]
        assert values == sorted(values, reverse=True)
        assert values[0] <= F_RIDGE + 1e-9

    def test_json_reports_config_and_failures(self, tmp_path):
        out = tmp_path / "search.json"
        code = main(
            [
                "search",
                "--family",
                "vacuum-squeezed",
                "--starts",
                "3",
                "--seed",
                "5",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "search"
        assert doc["seed"] == 5
        cfg = doc["config"]
        assert cfg["family"] == "vacuum-squeezed"
        assert cfg["starts"] == 3
        assert set(cfg) == {"family", "starts", "grad_tol", "max_iters"}
        assert doc["failed_starts"] == 0
        top = doc["extrema"][0]
        assert top["rank"] == 1
        assert set(top["params"]) == {"r"}
        assert top["params"]["r"] == 3.0
        assert top["converged"] is True

    def test_family_registries_exported(self):
        assert "coherent-pair" in SEARCH_FAMILY_NAMES
        assert set(SEARCH_FAMILY_NAMES) <= set(FAMILY_NAMES) | {"coherent-pair-free"}

    def test_unknown_search_family_exits_1(self, quiet_stderr):
        assert main(["search", "--family", "zhang"]) == 1
        assert "invalid choice" in quiet_stderr()

    def test_zero_starts_exits_1(self, quiet_stderr):
        assert main(["search", "--family", "coherent-pair", "--starts", "0"]) == 1
        assert "--starts" in quiet_stderr()


class TestDensity:
    def test_vacuum_grid_is_identically_zero(self, tmp_path):
        out = tmp_path / "vac.csv"
        code = main(
            ["density", "--family", "vacuum", "--grid-n", "16", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["kind", "x1", "x2", "x3", "t", "rho"]
        assert len(rows) == 16 * 16 + 1
        assert all(cells[5] == "0" for cells in rows)
        assert rows[-1][0] == "min"
        assert all(cells[0] == "sample" for cells in rows[:-1])

    def test_br_aligned_min_matches_closed_form(self, tmp_path):
        out = tmp_path / "br.csv"
        code = main(
            [
                "density",
                "--family",
                "barnett-radmore",
                "--grid-n",
                "16",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        kind, x1, x2, x3, t, rho = rows[-1]
        assert kind == "min"
        assert float(rho) == pytest.approx(-0.864664716763, abs=1e-9)
        assert (float(x1), float(x2), float(x3), float(t)) == (0.0, 0.0, 0.0, 0.0)

    def test_one_mode_family_occupies_mode_one(self, tmp_path):
        out = tmp_path / "sq.json"
        code = main(
            [
                "density",
                "--family",
                "squeezed-vacuum",
                "--set",
                "r=1",
                "--geometry",
                "standing:2:1:0",
                "--grid-n",
                "16",
                "--window",
                "4",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        geo = doc["config"]["geometry"]
        assert geo == {"kind": "standing", "omega1": 2.0, "omega2": 1.0, "cosangle": 0.0}
        # floor of a single squeezed mode at omega = 2: -2 sinh 1 (cosh 1 - sinh 1)
        target = -2.0 * math.sinh(1.0) * (math.cosh(1.0) - math.sinh(1.0))
        assert doc["rows"][-1]["kind"] == "min"
        assert doc["rows"][-1]["rho"] == pytest.approx(target, rel=1e-6)

    def test_out_of_domain_parameter_exits_1(self, quiet_stderr):
        assert main(["density", "--family", "squeezed-vacuum", "--set", "r=-1"]) == 1
        assert "must be >= 0" in quiet_stderr()

    def test_scalar_family_has_no_density(self, quiet_stderr):
        assert main(["density", "--family", "ecs-f"]) == 1
        assert "no spatial density" in quiet_stderr()

    def test_degenerate_state_exits_3(self, quiet_stderr):
        # The closed form flags the row; the density refuses it.
        assert main(["density", "--family", "zhang", "--set", "r=0", "--set", "theta=pi", "--grid-n", "16"]) == 3
        assert "numeric failure: degenerate state" in quiet_stderr()

    def test_degenerate_state_leaves_no_out_file(self, tmp_path, quiet_stderr):
        out = tmp_path / "density.csv"
        argv = ["density", "--family", "zhang", "--set", "r=0", "--set", "theta=pi", "--grid-n", "16"]
        assert main([*argv, "--out", str(out)]) == 3
        assert "numeric failure: degenerate state" in quiet_stderr()
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            # sqrt(w1 w2) overflows
            ["--family", "barnett-radmore", "--geometry", "traveling:1e200:1e200:1"],
            # the phases overflow, and their cosines are nan
            ["--family", "squeezed-vacuum", "--window", "1e308"],
        ],
    )
    def test_non_finite_scan_exits_3_without_output(self, tmp_path, quiet_stderr, argv):
        out = tmp_path / "density.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["density", *argv, "--grid-n", "16", "--out", str(out)]) == 3
        assert quiet_stderr() == "subvacuum density: numeric failure: density is not finite on the scan grid\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            # every channel is empty: the overflowing phases enter no term
            ["--family", "vacuum", "--window", "1e308"],
            # sqrt(w1 w2) overflows, but only in the empty cross channels
            ["--family", "squeezed-vacuum", "--geometry", "traveling:1e200:1e200:1"],
        ],
        ids=["vacuum", "one-mode"],
    )
    def test_overflow_in_empty_channels_is_no_failure(self, tmp_path, argv):
        out = tmp_path / "density.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["density", *argv, "--grid-n", "16", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 16**2 + 1
        rho = [float(row[-1]) for row in rows]
        assert all(map(math.isfinite, rho))
        if argv[1] == "vacuum":
            assert set(rho) == {0.0}

    @pytest.mark.parametrize("grid_n", [17, 24])
    @pytest.mark.parametrize(
        "geometry", ["standing:1:2:1", "traveling:1:2:1", "traveling:1:2:0", "traveling:1:1:0.3", "traveling:1:2:-0.5"]
    )
    def test_csv_matches_cell_by_cell_reference(self, tmp_path, geometry, grid_n):
        # The export formats each spatial point and each t once; it must
        # print what formatting every cell of every sample row prints.
        params = {"r": 0.8, "delta": 0.7}
        family = sf.REGISTRY["barnett-radmore"]
        moments = sf.regular(family.moments(family.record(params)))
        profile = density_profile(moments, _parse_geometry(geometry), 8.0, grid_n)
        pmin, vmin = profile.min_found
        rows = [("sample", *row) for row in profile.samples.tolist()] + [("min", *pmin.x, pmin.t, vmin)]
        expected = cell_by_cell(["kind", "x1", "x2", "x3", "t", "rho"], rows)

        out = tmp_path / "density.csv"
        sets = [f"--set={k}={v}" for k, v in params.items()]
        argv = ["density", "--family", "barnett-radmore", *sets, "--geometry", geometry, "--grid-n", str(grid_n)]
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode("utf-8")

    def test_3d_export_traced_peak_is_bounded(self, tmp_path):
        # The scan and the export each work one t slab at a time.  The peak
        # is 1.1 MB traced; a full-grid rho (2 MiB at 64^3) peaked at
        # 3.1 MB, and full-grid coordinate arrays plus the (N, 5) sample
        # table at 25.2 MB.
        out = tmp_path / "density.csv"
        argv = ["density", "--family", "barnett-radmore", "--geometry", "traveling:1:2:0", "--grid-n", "64"]
        peak = traced_peak([*argv, "--out", str(out)])
        assert out.stat().st_size > 64**3 * 30
        assert peak <= 2 * 64**3 * 8

    def test_3d_export_traced_peak_grows_with_the_spatial_block(self, tmp_path):
        # From grid_n 40 to 80 the peak grows by ~217 B per spatial point
        # (a t block's text and its floats), 1.04 MB in all.  A full-grid
        # array would add (80^3 - 40^3) * 8 B = 3.6 MB on its own.
        argv = ["density", "--family", "barnett-radmore", "--geometry", "traveling:1:2:0"]
        small, large = (
            traced_peak([*argv, "--grid-n", str(n), "--out", str(tmp_path / f"density-{n}.csv")]) for n in (40, 80)
        )
        assert large - small <= 300 * (80**2 - 40**2)

    def test_aligned_json_export_traced_peak_is_bounded(self, tmp_path):
        # JSON rows are formatted per t block, never as one dict per row
        # encoded whole: the peak is 0.13 MB traced against 7.0 MB.
        out = tmp_path / "density.json"
        argv = ["density", "--family", "barnett-radmore", "--geometry", "traveling:1:2:1", "--format", "json"]
        peak = traced_peak([*argv, "--out", str(out)])
        assert len(json.loads(out.read_text())["rows"]) == 64**2 + 1
        assert peak <= 4 * out.stat().st_size

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "barnett-radmore", "--set", "r=0.8", "--set", "delta=0.7", "--geometry", "traveling:1:2:0"],
            ["--family", "barnett-radmore", "--set", "r=0.8", "--geometry", "traveling:1:2:1"],
            ["--family", "zhang", "--set", "r=0.01", "--geometry", "traveling:1:2:-1"],
            ["--family", "squeezed-vacuum", "--set", "r=0.6", "--geometry", "standing:1.5:1:1"],
            ["--family", "coherent-pair", "--geometry", "traveling:1:1:0.3", "--window", "5"],
        ],
        ids=["3d", "aligned", "antiparallel", "one-mode-standing", "one-mode-skew"],
    )
    @pytest.mark.parametrize("negate_space", [False, True], ids=["", "negated-x"])
    def test_json_matches_json_dumps_reference(self, tmp_path, monkeypatch, argv, negate_space):
        # The JSON rows are formatted per t block from one "%r" row template;
        # they must print what json.dumps(doc, indent=2) prints.  Negating
        # the spatial points puts -0.0 in every zero coordinate.
        profiles = []

        def profile(*a):
            prof = density_profile(*a)
            profiles.append(dataclasses.replace(prof, space=-prof.space) if negate_space else prof)
            return profiles[-1]

        monkeypatch.setattr("subvacuum.cli.ed.density_profile", profile)
        out = tmp_path / "density.json"
        assert main(["density", *argv, "--grid-n", "17", "--format", "json", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")

        (prof,) = profiles
        header = ["kind", "x1", "x2", "x3", "t", "rho"]
        pmin, vmin = prof.min_found
        rows = [("sample", *row) for row in prof.samples.tolist()] + [("min", *pmin.x, pmin.t, vmin)]
        doc = strict_json(text)
        doc["rows"] = [dict(zip(header, row)) for row in rows]
        assert text == json.dumps(doc, indent=2) + "\n"
        assert ("-0.0," in text) == negate_space

    @pytest.mark.parametrize(
        "argv",
        [
            ["density", "--family", "vacuum", "--geometry", "traveling:1:1"],
            ["density", "--family", "vacuum", "--geometry", "orbital:1:1:1"],
            ["density", "--family", "vacuum", "--geometry", "traveling:0:1:1"],
            ["density", "--family", "vacuum", "--geometry", "traveling:1:1:2"],
            ["density", "--family", "vacuum", "--grid-n", "8"],
            ["density", "--family", "vacuum", "--window", "-1"],
            ["density", "--family", "vacuum", "--window", "inf"],
            ["density", "--family", "barnett-radmore", "--geometry", "traveling:inf:1:1"],
        ],
    )
    def test_geometry_and_grid_usage_errors(self, argv, quiet_stderr):
        assert main(argv) == 1
        assert "error" in quiet_stderr()


class TestVerify:
    def test_zero_draws_skip_identities_and_pass(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = main(["verify", "--draws", "0", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == [
            "kind",
            "name",
            "detail",
            "deviation",
            "tolerance",
            "tail_bound",
            "passed",
            "note",
        ]
        assert len(rows) == 7  # one row per family, no identity rows
        assert all(cells[0] == "family" and cells[6] == "true" for cells in rows)

    def test_small_run_passes_with_identities(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = main(
            [
                "verify",
                "--family",
                "barnett-radmore",
                "--draws",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        kinds = [cells[0] for cells in rows]
        assert kinds.count("family") == 1
        assert kinds.count("identity") == 21
        rejected = [cells for cells in rows if cells[1].endswith("[tanh denominator]")]
        assert len(rejected) == 3
        assert all(cells[6] == "false" for cells in rejected)

    def test_byte_identical_repeat(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = [
            "verify",
            "--family",
            "vacuum-squeezed",
            "--draws",
            "2",
            "--seed",
            "11",
            "--format",
            "json",
        ]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["command"] == "verify"
        assert doc["config"] == {"families": ["vacuum-squeezed"], "draws": 2, "cutoff": 4096}

    def test_repeated_family_is_verified_once(self, capsys):
        assert main(["verify", "--family", "zhang", "--family", "barnett-radmore", "--family", "zhang",
                     "--draws", "3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["families"] == ["zhang", "barnett-radmore"]
        assert [row["name"] for row in doc["rows"] if row["kind"] == "family"] == ["zhang", "barnett-radmore"]

    def test_failed_family_exits_2(self, tmp_path, monkeypatch):
        # The vacuum in place of the drawn states: every oracle moment is 0.
        vacuum = dataclasses.replace(
            sf.REGISTRY["vacuum-squeezed"],
            oracle=lambda p, cut: fock_oracle.coherent_vector(np.zeros(np.shape(p["r"])), cut),
        )
        monkeypatch.setitem(sf.REGISTRY, "vacuum-squeezed", vacuum)
        out = tmp_path / "broken.csv"
        code = main(
            [
                "verify",
                "--family",
                "vacuum-squeezed",
                "--draws",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        _, rows = read_csv(out)
        family_rows = [cells for cells in rows if cells[0] == "family"]
        assert family_rows[0][6] == "false"
        # the drawn state's largest closed-form moment, |<a^2>| at r = 2.44
        assert float(family_rows[0][3]) == 2.37811219

    def test_nan_oracle_state_fails_and_exits_2(self, tmp_path, monkeypatch):
        nan = dataclasses.replace(
            sf.REGISTRY["coherent-pair"],
            oracle=lambda p, cut: fock_oracle.FockVector(np.full((np.size(p["alpha"]), cut + 1), np.nan + 0j)),
        )
        monkeypatch.setitem(sf.REGISTRY, "coherent-pair", nan)
        out = tmp_path / "nan.csv"
        code = main(["verify", "--family", "coherent-pair", "--family", "zhang", "--draws", "3", "--out", str(out)])
        assert code == 2
        _, rows = read_csv(out)
        passed = {cells[1]: cells[6] for cells in rows if cells[0] == "family"}
        assert passed == {"coherent-pair": "false", "zhang": "true"}
        nan_row = next(cells for cells in rows if cells[1] == "coherent-pair")
        assert nan_row[3] == nan_row[5] == "nan"

    def test_nan_oracle_state_is_null_in_json(self, tmp_path, monkeypatch):
        nan = dataclasses.replace(
            sf.REGISTRY["coherent-pair"],
            oracle=lambda p, cut: fock_oracle.FockVector(np.full((np.size(p["alpha"]), cut + 1), np.nan + 0j)),
        )
        monkeypatch.setitem(sf.REGISTRY, "coherent-pair", nan)
        out = tmp_path / "nan.json"
        argv = ["verify", "--family", "coherent-pair", "--draws", "2", "--format", "json", "--out", str(out)]
        assert main(argv) == 2

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        rows = json.loads(out.read_text(), parse_constant=reject)["rows"]
        family = next(row for row in rows if row["kind"] == "family")
        assert family["deviation"] is None and family["tail_bound"] is None
        assert family["passed"] is False
        assert all(row["deviation"] is not None for row in rows if row["kind"] == "identity")

    def test_tiny_cutoff_exits_3(self, quiet_stderr):
        code = main(["verify", "--family", "zhang", "--draws", "1", "--cutoff", "8"])
        assert code == 3
        assert "numeric failure" in quiet_stderr()

    def test_cutoff_caps_the_identity_states_too(self, capsys):
        # The entangled coherent draw resolves below 512; the r = 2 identity states need 1024.
        assert main(["verify", "--family", "entangled-coherent", "--draws", "1", "--seed", "7", "--cutoff", "512"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "subvacuum verify: numeric failure: no cutoff <= 512 reaches tail mass 1.0e-12; state spreads too far\n"
        )


def _child_env() -> dict[str, str]:
    """This environment, with PYTHONPATH led by the directory that holds the imported package.

    pytest's ``pythonpath`` setting reaches the test process only; with this,
    a ``python -m subvacuum`` child finds the same package from a checkout
    with neither PYTHONPATH set nor an install.  Any PYTHONPATH set stays after it.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(sf.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("pythonpath", [None, os.pathsep.join(["no-such-dir", "src"])], ids=["unset", "set"])
def test_children_import_the_package_under_test(monkeypatch, pythonpath):
    if pythonpath is None:
        monkeypatch.delenv("PYTHONPATH", raising=False)
    else:
        monkeypatch.setenv("PYTHONPATH", pythonpath)
    env = _child_env()
    assert env["PYTHONPATH"].split(os.pathsep)[1:] == ([] if pythonpath is None else pythonpath.split(os.pathsep))
    result = subprocess.run([sys.executable, "-c", "import subvacuum.state_families as sf; print(sf.__file__)"],
                            capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    assert os.path.samefile(result.stdout.strip(), sf.__file__)


def test_module_entry_point_runs_in_subprocess(tmp_path):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "subvacuum",
            "sweep",
            "--family",
            "ecs-f",
            "--sweep",
            "sigma=0:3:3",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(),
    )
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "sigma,f"
    assert len(lines) == 5


def test_consecutive_main_calls_share_no_parser_state(tmp_path):
    # main parses with one parser per process; nothing one call sets may
    # reach the next: not its subcommand, its --set list or its flags.
    defaults = dict(sf.REGISTRY["coherent-pair"].defaults)
    runs = [
        (["sweep", "--family", "coherent-pair", "--set", "eta=2", "--set", "delta=1", "--sweep", "alpha=0:1:2"],
         {**defaults, "eta": 2.0, "delta": 1.0}),
        (["density", "--family", "coherent-pair", "--set", "beta=0.5", "--grid-n", "16"], {**defaults, "beta": 0.5}),
        (["sweep", "--family", "coherent-pair", "--set", "alpha=0.3", "--sweep", "beta=0:1:2"],
         {**defaults, "alpha": 0.3}),
        (["density", "--family", "coherent-pair", "--grid-n", "16", "--window", "4"], defaults),
    ]
    for i, (argv, params) in enumerate(runs):
        out = tmp_path / f"{i}.json"
        assert main([*argv, "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == argv[0] and doc["config"]["params"] == params, argv
        if argv[0] == "density":
            assert doc["config"]["window"] == (4.0 if "--window" in argv else 8.0)
    out = tmp_path / "search.csv"
    assert main(["search", "--family", "vacuum-squeezed", "--starts", "1", "--out", str(out)]) == 0
    assert out.read_text().startswith("rank,")


@pytest.mark.parametrize(
    "argv,target",
    [
        (["sweep", "--family", "zhang", "--sweep", "r=0:1:20"], "subvacuum.state_families.zhang_moments"),
        (["density", "--family", "barnett-radmore", "--geometry", "traveling:1:2:0"],
         "subvacuum.cli.ed.density_profile"),
    ],
    ids=["sweep", "density"],
)
@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""], ids=["numpy", "bare"])
def test_allocation_failure_is_a_numeric_failure(tmp_path, monkeypatch, capsys, argv, target, message):
    # An array too large to allocate (numpy raises a MemoryError) prints
    # one stderr line and exits 3; the allocation is simulated.
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(target, refuse)
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"subvacuum {argv[0]}: numeric failure: {message or 'out of memory'}\n"
    assert not out.exists()


def _file_size_cap() -> None:
    """In the child: writes past 64 KiB fail with EFBIG instead of raising SIGXFSZ."""
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 16, 1 << 16))


class TestOutputFailures:
    """An output that cannot be written: one stderr line, exit 1, no partial or temporary file.

    The five cases run as concurrent ``python -m subvacuum`` children; each
    test reads one child's outcome.
    """

    #: ~2.4 MB of CSV: more than a pipe buffer and more than the 64 KiB cap.
    LONG = ["sweep", "--family", "zhang", "--sweep", "r=0:2:20000"]
    SHORT = ["sweep", "--family", "zhang", "--sweep", "r=0:2:20"]

    @pytest.fixture(scope="class")
    def outcomes(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("outputs")
        (root / "dir").mkdir()
        (root / "capped").mkdir()
        full = open("/dev/full", "w")
        cases = {
            "broken-pipe": (self.LONG, {"stdout": subprocess.PIPE}),
            "missing-dir": ([*self.SHORT, "--out", str(root / "missing" / "x.csv")], {}),
            "directory": ([*self.SHORT, "--out", str(root / "dir")], {}),
            "dev-full": (self.SHORT, {"stdout": full}),
            "midway": ([*self.LONG, "--out", str(root / "capped" / "x.csv")], {"preexec_fn": _file_size_cap}),
        }
        env = _child_env()
        procs = {
            name: subprocess.Popen([sys.executable, "-m", "subvacuum", *argv], stderr=subprocess.PIPE, text=True,
                                   env=env, **kw)
            for name, (argv, kw) in cases.items()
        }
        first_line = procs["broken-pipe"].stdout.readline()
        procs["broken-pipe"].stdout.close()  # the reader goes away, as `| head -1` does
        results = {name: (proc.wait(timeout=120), proc.stderr.read()) for name, proc in procs.items()}
        for proc in procs.values():
            proc.stderr.close()
        full.close()
        return root, first_line, results

    @pytest.mark.parametrize(
        "case,reason",
        [
            ("broken-pipe", "cannot write stdout: Broken pipe"),
            ("missing-dir", "No such file or directory"),
            ("directory", "Is a directory"),
            ("dev-full", "cannot write stdout: No space left on device"),
            ("midway", "File too large"),
        ],
    )
    def test_one_stderr_line_and_exit_1(self, outcomes, case, reason):
        _, _, results = outcomes
        code, stderr = results[case]
        assert code == 1
        assert stderr.count("\n") == 1 and stderr.startswith("subvacuum sweep: cannot write ")
        assert reason in stderr

    def test_closed_pipe_got_the_header_first(self, outcomes):
        _, first_line, _ = outcomes
        assert first_line == "r,n1,n2,R1,R2,R3,R4,F\n"

    def test_no_out_file_and_no_temporary_file_is_left(self, outcomes):
        root, _, _ = outcomes
        assert not (root / "missing").exists()
        assert list((root / "dir").iterdir()) == []
        # nothing beside dir either, where a temporary file for it would sit
        assert sorted(p.name for p in root.iterdir()) == ["capped", "dir"]
        # the write failed midway through the temporary file: neither it nor x.csv remains
        assert list((root / "capped").iterdir()) == []


def test_stdout_that_cannot_be_written_is_pointed_at_devnull(monkeypatch, quiet_stderr):
    # In-process, the TestOutputFailures broken-pipe case: exit 1 with one
    # line, and stdout's descriptor now refers to os.devnull, so the final
    # flush at interpreter exit raises nothing.
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = io.TextIOWrapper(io.FileIO(write_end, "w"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert main(["sweep", "--family", "ecs-f", "--sweep", "sigma=0:3:3"]) == 1
        assert quiet_stderr() == "subvacuum sweep: cannot write stdout: Broken pipe\n"
        now, null = os.fstat(write_end), os.stat(os.devnull)
        assert (now.st_dev, now.st_ino, now.st_rdev) == (null.st_dev, null.st_ino, null.st_rdev)
    finally:
        stdout.close()


def test_out_replaces_an_existing_file_and_leaves_no_temporary(tmp_path):
    out = tmp_path / "sweep.csv"
    out.write_text("old\n")
    assert main(["sweep", "--family", "ecs-f", "--sweep", "sigma=0:3:3", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "sigma,f"
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_out_keeps_the_mode_and_writes_through_a_symlink(tmp_path):
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "sweep.csv"
    target.write_text("old\n")
    target.chmod(0o600)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["sweep", "--family", "ecs-f", "--sweep", "sigma=0:3:3", "--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text().splitlines()[0] == "sigma,f"
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "link.csv", "sweep.csv"]


def test_numeric_failure_midway_sends_nothing_to_a_fifo(tmp_path, quiet_stderr):
    # Row 3556 overflows in the fourth block, after three blocks are
    # formatted; a pipe given as --out is sent the output only once complete.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDWR | os.O_NONBLOCK)  # a reader that never blocks the writer's open
    try:
        argv = ["sweep", "--family", "barnett-radmore", "--sweep", "r=0:400:4000", "--out", str(fifo)]
        assert main(argv) == 3
        assert quiet_stderr() == "subvacuum sweep: numeric failure: non-finite result at r=355.6\n"
        with pytest.raises(BlockingIOError):  # the FIFO is empty
            os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "stderr.txt"]


def test_stdout_without_a_temporary_directory_is_an_output_failure(tmp_path, monkeypatch, capsys):
    # Stdout is sent the text of an anonymous temporary file once complete;
    # with no usable temporary directory the command fails as an output
    # that cannot be written does, prints nothing and leaves no descriptor
    # open (capsys's stdout has none to point at os.devnull).
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    descriptors = sorted(os.listdir("/proc/self/fd"))
    assert main(["sweep", "--family", "ecs-f", "--sweep", "sigma=0:3:3"]) == 1
    assert sorted(os.listdir("/proc/self/fd")) == descriptors
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "subvacuum sweep: cannot write stdout: No such file or directory\n"


def test_a_failure_before_any_write_leaves_stdout_alive(tmp_path, monkeypatch, capfd):
    # Only a failed write to stdout points it at os.devnull; a command that
    # fails before it writes anything (here, for want of a temporary
    # directory) leaves a stdout with a real descriptor open for later output.
    with monkeypatch.context() as patch:  # capfd needs a temporary directory itself
        patch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        assert main(["sweep", "--family", "ecs-f", "--sweep", "sigma=0:3:3"]) == 1
    print("after", flush=True)
    captured = capfd.readouterr()
    assert captured.out == "after\n"
    assert captured.err == "subvacuum sweep: cannot write stdout: No such file or directory\n"


def test_out_writes_into_a_fifo_in_place(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main(["sweep", "--family", "ecs-f", "--sweep", "sigma=0:3:3", "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got[0].splitlines()[0] == "sigma,f" and len(got[0].splitlines()) == 5
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]
