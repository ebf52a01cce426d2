"""Checks the tracer against a count fixed outside the benchmark.

Runs one traced search (about 10 s): ``search --family coherent-pair
--starts 64 --seed 42`` makes 330,881 closed-form evaluations.
"""

from run import OUT_DIR, run_child
from workloads import Command, check_search


def test_traced_search_counts_330881_closed_form_calls():
    OUT_DIR.mkdir(exist_ok=True)
    out = str(OUT_DIR / "trace-count-search.json")
    argv = ["search", "--family", "coherent-pair", "--starts", "64", "--seed", "42", "--format", "json", "--out", out]
    report = run_child([Command(argv, out, check_search)], trace=True)
    layers = report["layers"]
    assert report["commands"][0]["rc"] == 0
    assert layers["state_families.calls"] == 330_881
    assert layers["optimizer.starts"] == 64
    assert layers["cli.commands"] == 1
    assert abs(report["job_s"] - report["self_sum_s"]) < 1e-3
