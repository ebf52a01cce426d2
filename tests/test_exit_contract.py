"""The exit-code contract on generated command lines.

Every run of ``main`` exits 0 (success), 1 (usage error), 2 (verification
failure) or 3 (numeric failure).  A usage error or numeric failure leaves no
output and says why on stderr, a numeric failure in one line; an exit 0 prints
no ``nan`` or ``inf`` and repeats byte for byte.  The command lines are drawn
from ``REGISTRY``: every family, search view and key, plus unknown ones, with
edge numbers and malformed text, sweeps of at most 50 steps and density grids
of 16 or 17 points.  The examples are derandomized; ``HYPOTHESIS_PROFILE=long``
runs a longer, randomized pass.
"""

import contextlib
import io
import os
import re
import sys

from hypothesis import HealthCheck, example, given, settings, strategies as st

from subvacuum.cli import main
from subvacuum.state_families import REGISTRY, SEARCHES
from subvacuum.verification import FAMILIES as VERIFIED

LONG = os.environ.get("HYPOTHESIS_PROFILE") == "long"
contract = settings(
    max_examples=500 if LONG else 40,
    derandomize=not LONG,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")
MAX = repr(sys.float_info.max)

edge = st.one_of(
    st.sampled_from(["0", "-0", "5e-324", "1e308", "-1e308", "710", "nan", "inf", "1e400", "0.5pi", "-pi"]),
    st.sampled_from(["", " ", "1e", "x", "1/2"]),
    st.floats().map(repr),
)


def mostly(valid: st.SearchStrategy, invalid: st.SearchStrategy) -> st.SearchStrategy:
    """``valid`` seven times in eight, else ``invalid``: a command line of
    several parts then has about one invalid part."""
    return st.integers(0, 7).flatmap(lambda i: valid if i else invalid)


def numbers(lo: float, hi: float) -> st.SearchStrategy[str]:
    """Mostly a plain number in [lo, hi], else an edge value or malformed text."""
    return mostly(st.floats(lo, hi).map(lambda v: f"{v:.6g}"), edge)


def names(valid) -> st.SearchStrategy[str]:
    return mostly(st.sampled_from(list(valid)), st.just("nofamily"))


io_flags = mostly(st.sampled_from([[], ["--format", "csv"], ["--format", "json"]]), st.just(["--format", "xml"]))


def keys_of(name: str) -> st.SearchStrategy[str]:
    keys = list(REGISTRY[name].defaults) if name in REGISTRY else []
    return mostly(st.sampled_from(keys), st.just("nokey")) if keys else st.just("nokey")


@st.composite
def assignments(draw, name: str) -> list[str]:
    argv: list[str] = []
    for _ in range(draw(st.integers(0, 2))):
        argv += ["--set", f"{draw(keys_of(name))}={draw(numbers(0.0, 3.0))}"]
    return argv


@st.composite
def sweeps(draw) -> list[str]:
    name = draw(names(REGISTRY))
    steps = draw(mostly(st.integers(1, 50).map(str), st.sampled_from(["0", "-1", "", "2.5", "x"])))
    sweep = f"{draw(keys_of(name))}={draw(numbers(0.0, 3.0))}:{draw(numbers(0.0, 3.0))}:{steps}"
    return ["sweep", "--family", name, *draw(assignments(name)), "--sweep", sweep, *draw(io_flags)]


@st.composite
def searches(draw) -> list[str]:
    name = draw(names(SEARCHES))
    starts = draw(mostly(st.integers(1, 4).map(str), st.sampled_from(["0", "-1", "x"])))
    seed = draw(mostly(st.integers(0, 2**32).map(str), st.sampled_from(["-1", "x"])))
    return ["search", "--family", name, "--starts", starts, "--seed", seed, *draw(io_flags)]


@st.composite
def densities(draw) -> list[str]:
    name = draw(names(REGISTRY))
    kind = draw(mostly(st.sampled_from(["traveling", "standing"]), st.just("nokind")))
    geometry = ":".join([kind, draw(numbers(0.1, 3.0)), draw(numbers(0.1, 3.0)), draw(numbers(-1.0, 1.0))])
    window = draw(mostly(numbers(0.5, 10.0), st.sampled_from(["1e-300", "1e300"])))
    grid = draw(mostly(st.sampled_from(["16", "17"]), st.sampled_from(["15", "x"])))
    return ["density", "--family", name, *draw(assignments(name)), "--geometry", geometry,
            f"--window={window}", "--grid-n", grid, *draw(io_flags)]


@st.composite
def verifications(draw) -> list[str]:
    families = draw(st.lists(names(VERIFIED), max_size=2))
    draws = draw(mostly(st.integers(0, 2), st.just(-1)))
    cutoff = draw(mostly(st.sampled_from(["8", "64", "4096"]), st.sampled_from(["0", "1"])))
    seed = draw(mostly(st.integers(0, 1000), st.just(-1)))
    family_flags = [flag for name in families for flag in ("--family", name)]
    return ["verify", *family_flags, "--draws", str(draws), "--cutoff", cutoff, "--seed", str(seed), *draw(io_flags)]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def check_contract(argv: list[str]) -> None:
    rc, out, err = run(argv)
    assert rc in (0, 1, 2, 3), (argv, rc)
    if rc in (1, 3):
        assert out == "" and err, (argv, rc, out, err)
    if rc == 3:
        assert err.count("\n") == 1, (argv, err)
    if rc == 0:
        assert not NON_FINITE.search(out), (argv, NON_FINITE.search(out))
        assert run(argv) == (rc, out, err), argv


@contract
@given(argv=sweeps())
def test_sweep_keeps_the_exit_contract(argv):
    check_contract(argv)


@contract
@given(argv=searches())
def test_search_keeps_the_exit_contract(argv):
    check_contract(argv)


@contract
@given(argv=densities())
# The largest float as the window: linspace's last product rounds past it,
# which printed numpy's overflow warning beside an exit 0 or a failure line.
@example(argv=["density", "--family", "coherent-pair", "--geometry", "traveling:0.5:1:0", f"--window={MAX}",
                "--grid-n", "16"])
@example(argv=["density", "--family", "coherent-pair", "--geometry", "traveling:1:5e-324:0", f"--window={MAX}",
                "--grid-n", "16"])
def test_density_keeps_the_exit_contract(argv):
    check_contract(argv)


@contract
@given(argv=verifications())
def test_verify_keeps_the_exit_contract(argv):
    check_contract(argv)
