"""Fast unit tests of the benchmark's own code; they run no workload."""

import json
import re
import sys
from pathlib import Path

import pytest

from run import END_TO_END, ROOT
from stats import quantile, summarize, weighted_median
from tracer import PER_LAYER, Tracer, install, uninstall
from workloads import GRID_N, W_RIDGE, check_density_csv, check_search, check_sweep, tally


def valid_name(name):
    """Metric and workload names: a letter or digit, then up to 63 of [A-Za-z0-9_.-]."""
    return re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) is not None


def test_summarize_odd_and_even_counts():
    assert summarize([5, 1, 4, 2, 3]) == {"median": 3, "q1": 2, "q3": 4, "n": 5}
    s = summarize([4.0, 1.0, 3.0, 2.0])
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (2.5, 1.75, 3.25, 4)
    assert summarize([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def test_quantile_interpolates_and_rejects_empty():
    assert quantile(range(11), 0.9) == pytest.approx(9.0)
    assert quantile([1.0, 2.0], 0.5) == 1.5
    with pytest.raises(ValueError):
        quantile([], 0.5)


def test_weighted_median_repeats_by_weight():
    assert weighted_median([(0.1, 1), (0.5, 3)]) == 0.5
    assert weighted_median([(1.0, 2), (3.0, 2)]) == 2.0


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_with_nested_and_adjacent_children():
    # A [0, 10] holds B [1, 3] and, adjacent to it, C [3, 6]; C holds D [4, 5].
    tr = Tracer(clock=fake_clock([0, 1, 3, 3, 4, 5, 6, 10]))
    a = tr.enter("cli", "A")
    b = tr.enter("x", "B")
    tr.exit(b)
    c = tr.enter("x", "C")
    d = tr.enter("y", "D")
    tr.exit(d)
    tr.exit(c)
    assert tr.exit(a) == 10
    selfs = {name: s for name, _, _, _, _, _, s in tr.spans}
    assert selfs == {"A": 5, "B": 2, "C": 2, "D": 1}
    assert dict(tr.layer_self) == {"cli": 5, "x": 4, "y": 1}
    assert sum(tr.layer_self.values()) == 10
    parents = {name: parent for name, _, _, parent, _, _, _ in tr.spans}
    assert parents == {"A": -1, "B": 0, "C": 0, "D": 2}


def test_same_layer_call_inherits_group_and_is_not_an_entry():
    tr = Tracer(clock=fake_clock([0, 1, 2, 4]))
    outer = tr.enter("fock_oracle", "coherent_cutoff_for")
    inner = tr.enter("fock_oracle", "coherent_vector")
    tr.exit(inner)
    tr.exit(outer)
    assert tr.entries["fock_oracle"] == 1
    assert tr.calls["fock_oracle.coherent_vector"] == 1
    assert dict(tr.group_self) == {"fock_oracle.coherent_cutoff_for": 4}


def test_exit_out_of_order_is_an_error():
    tr = Tracer(clock=fake_clock(range(10)))
    a = tr.enter("cli", "A")
    tr.enter("cli", "B")
    with pytest.raises(RuntimeError):
        tr.exit(a)


def test_install_rebinds_every_binding_and_uninstall_restores():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import subvacuum
        import subvacuum.optimizer as opt
        import subvacuum.state_families as sf
    finally:
        sys.path.remove(str(ROOT / "src"))
    original = sf.squeezed_vacuum_moments
    tr = Tracer()
    replaced = install(tr)
    try:
        assert sf.squeezed_vacuum_moments is not original
        assert subvacuum.squeezed_vacuum_moments is sf.squeezed_vacuum_moments
        assert opt.coherent_superposition_moments is sf.coherent_superposition_moments
        sf.squeezed_vacuum_moments(1.0, 0.5)
    finally:
        uninstall(replaced)
    assert sf.squeezed_vacuum_moments is original
    assert subvacuum.squeezed_vacuum_moments is original
    # One entry into the layer; the nested wrap_angle call is only counted.
    assert tr.entries["state_families"] == 1
    assert tr.calls["state_families.wrap_angle"] == 1
    assert tr.spans == []  # closed forms are hot: counters, no spans


def test_tally_counts_commands_and_search_starts():
    outcomes = [
        (0, 0, [], {}),  # ok
        (1, 0, [], {}),  # wrong exit code
        (0, 0, ["bad row"], {}),  # output check failed
        (0, 0, [], {"starts": 64, "failed_starts": 2}),  # search: 65 operations, 2 failed
        (1, 1, [], {}),  # expected usage error
    ]
    assert tally(outcomes) == (69, 4)


def test_check_sweep_allows_degenerate_rows_only(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("r,n,R,F\n0,0,0,0\n0.5,,,\n1,1,2,1\n")
    assert check_sweep(2)(str(path)) == ([], {})
    path.write_text("r,n,R,F\n0,0,0,0\n0.5,inf,1,1\n1,1,2,1\n")
    assert check_sweep(2)(str(path))[0]
    assert check_sweep(3)(str(path))[0]


def test_check_density_counts_rows_and_bounds_the_min(tmp_path):
    path = tmp_path / "d.csv"
    samples = [f"sample,0,0,0,{i},{1.0 + i % 7}" for i in range(GRID_N**2)]

    def write(min_rho, rows=samples):
        path.write_text("\n".join(["kind,x1,x2,x3,t,rho", *rows, f"min,0,0,0,0,{min_rho}"]) + "\n")
        return check_density_csv(2)(str(path))[0]

    assert write(0.5) == []
    assert write(1.0) == []
    assert write(1.5)  # above the smallest sample
    assert write(0.5, samples[:-1])  # one sample short
    assert check_density_csv(3)(str(path))[0]


def test_check_search_rejects_F_above_the_ridge(tmp_path):
    path = tmp_path / "s.json"
    doc = {"extrema": [{"rank": 1, "F": W_RIDGE - 1e-4, "members": 63}], "failed_starts": 1}
    path.write_text(json.dumps(doc))
    problems, stats = check_search(str(path))
    assert problems == [] and stats["failed_starts"] == 1 and stats["ridge_gaps"][0][1] == 63
    doc["extrema"][0]["F"] = W_RIDGE + 1e-6
    path.write_text(json.dumps(doc))
    assert check_search(str(path))[0]


def test_metric_names_are_valid_and_match_benchmark_json():
    assert all(map(valid_name, ["job_s", "fock_oracle.cutoff_p50", "verification.family_s.zhang", "9-a"]))
    assert not any(map(valid_name, ["", "-x", ".x", "a b", "a/b", "x" * 65]))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert e2e == list(END_TO_END)
    assert per_layer == list(PER_LAYER)
    names = [n for n, _ in e2e + per_layer] + [w["name"] for w in spec["workloads"]]
    assert all(map(valid_name, names))
    assert len(set(names)) == len(names)
    assert all((Path(ROOT) / p).is_dir() for p in spec["paths"])
