"""End-to-end CLI behavior: flags, formats, exit codes, determinism.

Everything runs through ``main(argv)`` with ``--out`` files so the suite
stays independent of pytest's capture mode; one subprocess test covers the
``python -m`` entry point.
"""

import csv
import dataclasses
import io
import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import subvacuum.state_families as sf
from subvacuum import fock_oracle
from subvacuum.cli import FAMILY_NAMES, SEARCH_FAMILY_NAMES, UsageError, _fmt, _parse_geometry, main, parse_real
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
            assert float(cells[1]) == float(f"{m.n:.9g}")
            assert float(cells[2]) == float(f"{m.pair_mag:.9g}")
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

    def test_row_template_matches_cell_formatting(self, capsys):
        # Float rows go through one "%.9g" template per command; it must
        # print what the per-cell formatter prints, -0.0 included.
        assert main(["sweep", "--family", "squeezed-vacuum", "--set", "r=-0", "--sweep", "delta=0:1:2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert _fmt(-0.0) == "%.9g" % -0.0 == "-0"
        assert lines == ["delta,n,R,F", "0,0,0,-0", "0.5,0,0,-0", "1,0,0,-0"]

    def test_blocks_match_cell_by_cell_reference(self, tmp_path):
        # theta = pi, the one degenerate row, opens the second 4096-row block.
        argv = ["sweep", "--family", "zhang", "--set", "r=0", "--sweep", "theta=0:2pi:8192"]
        out, doc = tmp_path / "sweep.csv", tmp_path / "sweep.json"
        assert main([*argv, "--out", str(out)]) == 0
        assert main([*argv, "--format", "json", "--out", str(doc)]) == 0
        rows = [list(row.values()) for row in json.loads(doc.read_text())["rows"]]
        assert [i for i, row in enumerate(rows) if row[1] is None] == [4096]
        expected = cell_by_cell(["theta", "n1", "n2", "R1", "R2", "R3", "R4", "F"], rows)
        assert out.read_text(encoding="utf-8") == expected

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
        "argv",
        [
            ["sweep", "--family", "squeezed-vacuum", "--sweep", "r=0:1"],
            ["sweep", "--family", "squeezed-vacuum", "--sweep", "r=0:1:0"],
            ["sweep", "--family", "squeezed-vacuum", "--sweep", "q=0:1:4"],
            ["sweep", "--family", "squeezed-vacuum", "--sweep", "r=0:1:x"],
            ["sweep", "--family", "squeezed-vacuum", "--sweep", "r=0:1:4", "--set", "bogus=1"],
            ["sweep", "--family", "squeezed-vacuum", "--sweep", "r=0:1:4", "--set", "delta"],
            ["sweep", "--family", "coherent-pair", "--sweep", "alpha=0:nan:2"],
            ["search", "--family", "coherent-pair", "--starts", "1", "--seed", "-1"],
            ["verify", "--draws", "-1"],
            ["verify", "--seed", "-1"],
            ["verify", "--cutoff", "0"],
            ["verify", "--cutoff", "-1"],
        ],
    )
    def test_usage_errors_exit_1(self, argv, quiet_stderr):
        assert main(argv) == 1
        assert "error" in quiet_stderr()

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
            (["--family", "superposed-squeezed", "--set", "eta=0.7", "--sweep", "r=0:400:1000"], "r=178.4"),
            (["--family", "coherent-squeezed", "--sweep", "r=0:800:1000"], "r=356"),
            (["--family", "vacuum-squeezed", "--sweep", "r=700:720:200"], "r=700"),
            (["--family", "zhang", "--sweep", "r=0:400:2"], "r=400"),
            (["--family", "entangled-coherent", "--sweep", "sigma=0:1e160:4"], "sigma=2.5e+159"),
            (["--family", "ecs-f", "--sweep", "sigma=0:1e200:4"], "sigma=2.5e+199"),
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

    @pytest.mark.parametrize("grid_n", [17, 24])
    @pytest.mark.parametrize(
        "geometry", ["standing:1:2:1", "traveling:1:2:1", "traveling:1:2:0", "traveling:1:1:0.3", "traveling:1:2:-0.5"]
    )
    def test_csv_matches_cell_by_cell_reference(self, tmp_path, geometry, grid_n):
        # The export formats each spatial point and each t once; it must
        # print what formatting every cell of every sample row prints.
        params = {"r": 0.8, "delta": 0.7}
        family = sf.REGISTRY["barnett-radmore"]
        moments = family.layout.lift(sf.regular(family.moments(family.record(params))))
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
        # Streaming t blocks from the sample array peaks at 5.9 MiB traced;
        # per-row tuples plus one whole-document string peak at 25.7 MiB.
        out = tmp_path / "density.csv"
        argv = ["density", "--family", "barnett-radmore", "--geometry", "traveling:1:2:0", "--grid-n", "40"]
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > 40**3 * 30
        assert peak < 12 * 2**20

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

    def test_failed_family_exits_2(self, tmp_path, monkeypatch):
        # The vacuum in place of the drawn states: every oracle moment is 0.
        vacuum = dataclasses.replace(
            sf.REGISTRY["vacuum-squeezed"],
            oracle=lambda p, cut: fock_oracle.coherent_vector(np.zeros(np.shape(p.r)), cut),
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
            oracle=lambda p, cut: fock_oracle.FockVector(np.full((np.size(p.alpha), cut + 1), np.nan + 0j)),
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
            oracle=lambda p, cut: fock_oracle.FockVector(np.full((np.size(p.alpha), cut + 1), np.nan + 0j)),
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
    )
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "sigma,f"
    assert len(lines) == 5
