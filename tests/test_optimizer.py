"""The L-BFGS-B search: objective, single ascents, multi-start dedup and budget."""

import dataclasses
import math

import numpy as np
import pytest

from subvacuum import optimizer
from subvacuum.optimizer import (
    CLUSTER_RADIUS,
    GRAD_TOL,
    Extremum,
    MultiStartReport,
    _lockstep,
    multi_start,
    objective_F,
)
from subvacuum.state_families import (
    SEARCHES,
    SearchView,
    TwoModeMoments,
    coherent_plus_squeezed_moments,
)

PI = math.pi

# Optimal half-separation of the even coherent superposition and the common
# objective value along its displacement ridge (lambertW(1/e), reached at
# alpha = beta = A_STAR as well as at the displaced endpoint (0, 2 A_STAR)).
A_STAR = 0.7995200256282121
F_RIDGE = 0.2784645427610738


def one_mode(n, excess, denominator=1.0) -> TwoModeMoments:
    """A one-mode record with occupation ``n``, excess ``excess`` and no pair moment."""
    return TwoModeMoments(n, 0.0, 0.0, 0.0, 0.0, 0.0, excess, denominator)


def view(name: str) -> SearchView:
    """The registry's search view ``name``."""
    return SEARCHES[name][1]


def quadratic_view(lower=(-10.0, -10.0), upper=(10.0, 10.0)) -> SearchView:
    """Synthetic concave objective F = 3 - (p0-1)^2 - 2(p1+0.5)^2, one value per row."""

    def moments(p: np.ndarray) -> TwoModeMoments:
        q = (p[..., 0] - 1.0) ** 2 + 2.0 * (p[..., 1] + 0.5) ** 2
        return one_mode(n=q - 3.0, excess=3.0 - q)

    return SearchView(
        names=("p0", "p1"),
        lower=lower,
        upper=upper,
        angular=(False, False),
        moments_of=moments,
    )


def half_degenerate_view() -> SearchView:
    """F = -(p0 - 5)^2 / 100 on [-10, 10], flagged degenerate wherever p0 > 2."""

    def moments(p: np.ndarray) -> TwoModeMoments:
        f = -((p[..., 0] - 5.0) ** 2) / 100.0
        return one_mode(n=-f, excess=f, denominator=np.where(p[..., 0] > 2.0, 0.0, 1.0))

    return SearchView(names=("p0",), lower=(-10.0,), upper=(10.0,), angular=(False,), moments_of=moments)


class TestSearchView:
    def test_rejects_misaligned_fields(self):
        with pytest.raises(ValueError, match="align"):
            SearchView(
                names=("a", "b"),
                lower=(0.0,),
                upper=(1.0, 1.0),
                angular=(False, False),
                moments_of=lambda p: one_mode(0.0, 0.0),
            )

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="lower"):
            SearchView(
                names=("a",),
                lower=(2.0,),
                upper=(1.0,),
                angular=(False,),
                moments_of=lambda p: one_mode(0.0, 0.0),
            )

    def test_clamp_clips_box_and_wraps_angles(self):
        space = view("coherent-pair")
        q = space.clamp(np.array([-1.0, 5.0, 2.0, -0.1, 2.0 * PI + 0.3]))
        assert q[0] == 0.0
        assert q[1] == 3.0
        assert q[2] == 2.0
        assert q[3] == pytest.approx(2.0 * PI - 0.1, abs=1e-12)
        assert q[4] == pytest.approx(0.3, abs=1e-12)


class TestSearchConfig:
    def test_defaults_valid(self):
        assert optimizer.MAX_ITERS == 500 and optimizer.GRAD_TOL == 1e-7

    @pytest.mark.parametrize("starts", [0, -1])
    def test_rejects_bad_hyperparameters(self, starts):
        with pytest.raises(ValueError, match="starts"):
            multi_start(view("vacuum-squeezed"), starts, 0)


class TestObjective:
    def test_ridge_endpoints_share_the_lambert_value(self):
        space = view("coherent-pair")
        cat = objective_F(space, np.array([A_STAR, A_STAR, 1.0, PI, 0.0]))
        displaced = objective_F(space, np.array([0.0, 2.0 * A_STAR, 1.0, 0.0, 0.0]))
        assert cat == pytest.approx(F_RIDGE, abs=1e-12)
        assert displaced == pytest.approx(F_RIDGE, abs=1e-12)

    def test_degenerate_point_maps_to_minus_infinity(self):
        # beta = alpha with eta = -1 annihilates the superposition.
        space = view("coherent-pair")
        val = objective_F(space, np.array([0.5, 0.5, 1.0, 0.0, PI]))
        assert val == -math.inf

    def test_quadratic_value(self):
        space = quadratic_view()
        assert objective_F(space, np.array([1.0, -0.5])) == pytest.approx(3.0)
        assert objective_F(space, np.array([0.0, 0.0])) == pytest.approx(1.5)

    def test_displacement_ridge_is_flat_in_full_phase_space(self):
        # Unpinning the first coherent phase adds the displacement direction
        # to the box; along the ridge the objective keeps the Lambert value.
        space = view("coherent-pair-free")
        for c in (0.1, 0.3, 0.4):
            a1, a2 = c + A_STAR, c - A_STAR
            p = np.array(
                [
                    abs(a1),
                    abs(a2),
                    1.0,
                    0.0 if a1 >= 0 else PI,
                    0.0 if a2 >= 0 else PI,
                    0.0,
                ]
            )
            assert objective_F(space, p) == pytest.approx(F_RIDGE, abs=1e-12)


class TestAscend:
    def test_converges_to_interior_maximum(self):
        space = quadratic_view()
        ext = _lockstep(space, [[0.0, 0.0]])[0]
        assert ext.converged
        assert ext.grad_norm <= 1e-7
        assert ext.params[0] == pytest.approx(1.0, abs=1e-6)
        assert ext.params[1] == pytest.approx(-0.5, abs=1e-6)
        assert ext.F == pytest.approx(3.0, abs=1e-12)

    def test_start_at_maximum_terminates_immediately(self):
        space = quadratic_view()
        ext = _lockstep(space, [[1.0, -0.5]])[0]
        assert ext.converged
        assert ext.iterations == 0
        assert ext.F == pytest.approx(3.0)

    def test_pins_to_boundary_when_maximum_lies_outside(self):
        space = quadratic_view(lower=(-10.0, -10.0), upper=(0.5, 10.0))
        ext = _lockstep(space, [[-1.0, 0.0]])[0]
        assert ext.converged
        assert ext.params[0] == pytest.approx(0.5, abs=1e-9)
        assert ext.params[1] == pytest.approx(-0.5, abs=1e-6)

    def test_degenerate_start_fails(self):
        space = view("coherent-pair")
        assert _lockstep(space, [[0.5, 0.5, 1.0, 0.0, PI]])[0] is None

    def test_never_finishes_below_its_start(self, monkeypatch):
        monkeypatch.setattr(optimizer, "MAX_ITERS", 40)
        space = view("coherent-pair")
        rng = np.random.default_rng(9)
        lo, hi = np.array(space.lower), np.array(space.upper)
        for _ in range(20):
            p0 = lo + (hi - lo) * rng.uniform(size=space.dim)
            f0 = objective_F(space, p0)
            if not math.isfinite(f0):
                continue
            ext = _lockstep(space, [p0])[0]
            assert ext.F >= f0

    def test_degenerate_line_search_point_ends_at_last_finite_iterate(self):
        space = half_degenerate_view()
        f0 = objective_F(space, np.array([0.0]))
        ext = _lockstep(space, [[0.0]])[0]
        assert not ext.converged and ext.grad_norm is None
        assert ext.iterations >= 1
        assert ext.params[0] <= 2.0
        assert ext.F == objective_F(space, np.array(ext.params))
        assert ext.F > f0

    def test_degenerate_first_stencil_ends_unconverged_at_the_start(self):
        # F is finite at the start, but its forward step crosses p0 = 2 into
        # the degenerate region, so the gradient there is undefined.
        space = half_degenerate_view()
        start = 2.0 - 5e-9
        ext = _lockstep(space, [[start]])[0]
        assert ext.params == (start,) and ext.iterations == 0
        assert not ext.converged and ext.grad_norm is None
        assert ext.F == objective_F(space, np.array([start]))

    def test_no_point_is_evaluated_twice(self):
        # Start 10 at seed 42 revisits a point on the box edge.  F at the
        # start is row 0 of the first gradient stencil, and a revisited point
        # is not evaluated again: every batch but the last (the moments at
        # the end points, here one) is a distinct stencil.
        base = view("coherent-pair")
        batches = []
        space = dataclasses.replace(base, moments_of=lambda p: batches.append(np.array(p)) or base.moments_of(p))
        lo, hi = np.array(space.lower), np.array(space.upper)
        start = lo + (hi - lo) * np.random.default_rng([42, 10]).uniform(size=space.dim)
        _lockstep(space, [start])
        *stencils, last = batches
        assert last.shape == (1, space.dim)
        assert all(b.shape == (space.dim + 1, space.dim) for b in stencils)
        assert len({b.tobytes() for b in stencils}) == len(stencils) == 36
        assert stencils[0][0].tobytes() == space.clamp(start).tobytes()


class TestMultiStart:
    def test_deterministic_and_fully_accounted(self):
        space = view("coherent-pair")
        report = multi_start(space, 8, 42)
        assert report == multi_start(space, 8, 42)
        assert report.failed_starts == 0
        assert sum(e.members for e in report.extrema) == 8

    def test_sorted_descending_and_near_ridge_top(self):
        space = view("coherent-pair")
        report = multi_start(space, 8, 42)
        values = [e.F for e in report.extrema]
        assert values == sorted(values, reverse=True)
        # 8 starts already get within ~3e-7 of the ridge value but cannot
        # exceed it.
        assert values[0] == pytest.approx(F_RIDGE, abs=1e-5)
        assert values[0] <= F_RIDGE + 1e-9

    def test_representatives_are_distinct_after_canonicalization(self):
        # Clustering runs on canonical points, so no two representatives may
        # lie within the cluster radius of each other there, and every start
        # is a member of exactly one cluster.
        space = view("coherent-pair")
        report = multi_start(space, 8, 42)
        reps = [space.canonical(np.array(e.params)) for e in report.extrema]
        angular = np.array(space.angular)
        for i, a in enumerate(reps):
            for b in reps[:i]:
                diff = np.abs(a - b)
                diff = np.where(angular, np.minimum(diff, 2.0 * PI - diff), diff)
                assert diff.max() > CLUSTER_RADIUS
        assert sum(e.members for e in report.extrema) == 8

    def test_degenerate_draws_fail_and_the_rest_are_clustered(self):
        space = half_degenerate_view()
        report = multi_start(space, 16, 5)
        drawn = [-10.0 + 20.0 * np.random.default_rng([5, k]).uniform(size=1)[0] for k in range(16)]
        assert report.failed_starts == sum(d > 2.0 for d in drawn) > 0
        assert sum(e.members for e in report.extrema) == sum(d <= 2.0 for d in drawn)
        assert all(not e.converged for e in report.extrema)

    def test_evaluation_budget_and_ridge_hits(self):
        # 64 starts at seed 42 evaluate 15,112 points in 527 batches (each of
        # 526 rounds is one batch of every pending point and its 5-point
        # stencil, no point is evaluated twice in a run, and the 64 end
        # points' moments are one more batch) and put 55 starts within 1e-9 of
        # W(1/e); the bounds leave room for changes in scipy's line search.
        points = batches = 0
        base = view("coherent-pair")

        def counted(p):
            nonlocal points, batches
            batches += 1
            points += len(np.atleast_2d(p))
            return base.moments_of(p)

        space = dataclasses.replace(base, moments_of=counted)
        report = multi_start(space, 64, 42)
        assert points <= 20_000
        assert batches <= points / 5
        assert sum(e.members for e in report.extrema if abs(e.F - F_RIDGE) <= 1e-9) >= 48
        assert report.failed_starts == 0
        assert all(e.F <= F_RIDGE + 1e-9 for e in report.extrema)
        assert 2 * sum(e.converged for e in report.extrema) >= len(report.extrema)

    def test_vanishing_difference_step_ends_the_run_unconverged(self):
        # Start 25 at seed 6 drifts to alpha ~ 0, where F is flat in both
        # phases; L-BFGS-B then walks the unbounded delta to ~5e8, where
        # (x + h) - x is 0 and the forward quotient would be 0/0.  The run
        # ends at its last finite iterate, unconverged, like a degenerate one.
        space = view("coherent-pair")
        report = multi_start(space, 64, 6)
        assert report.failed_starts == 0
        assert sum(e.members for e in report.extrema) == 64
        lo, hi = np.array(space.lower), np.array(space.upper)
        start = lo + (hi - lo) * np.random.default_rng([6, 25]).uniform(size=space.dim)
        ext = _lockstep(space, [start])[0]
        assert not ext.converged and ext.grad_norm is None
        assert all(math.isfinite(v) for v in ext.params)
        assert ext.F == objective_F(space, np.array(ext.params))
        assert ext.F >= objective_F(space, start)

    def test_canonical_map_merges_swapped_representation(self):
        space = view("coherent-pair")
        assert space.canonical is not None
        p = np.array([0.3, 1.2, 2.0, 0.5, 1.0])
        swapped = np.array([1.2, 0.3, 0.5, 2.0 * PI - 0.5, 2.0 * PI - 1.0])
        assert space.canonical(p) == pytest.approx(space.canonical(swapped), abs=1e-12)

    def test_canonical_map_zeroes_meaningless_phase(self):
        space = view("coherent-pair")
        rep = space.canonical(np.array([0.0, 1.0, 1.0, 2.3, 0.7]))
        assert rep[3] == 0.0

    def test_vacuum_squeezed_slice_pins_to_upper_bound(self):
        space = view("vacuum-squeezed")
        report = multi_start(space, 6, 3)
        assert len(report.extrema) == 1
        top = report.extrema[0]
        assert top.params == (3.0,)
        assert top.converged and top.grad_norm == 0.0
        assert top.members == 6
        m = coherent_plus_squeezed_moments(r=3.0, delta=0.0, alpha=0.0, eta=-1.0)
        assert top.F == m.excess


def test_search_work_is_pinned(monkeypatch, capsys):
    # The closed-form batches and evaluated rows of the 64-start search at
    # seed 42, the work the search-ascent benchmark times.  All 64 starts run
    # in one lockstep, so a batch is one round's stencils: 526 rounds, as many
    # as the longest run needs, evaluate the 2,508 stencils of 6 rows that the
    # starts would evaluate one by one.  A change that moves either count
    # changes the runs themselves, or how they are batched, not only their
    # cost.
    from subvacuum.cli import main

    work = [0, 0]

    def counted(space, params):
        work[0] += 1
        work[1] += len(np.atleast_2d(params))
        return objective_F(space, params)

    monkeypatch.setattr(optimizer, "objective_F", counted)
    assert main(["search", "--family", "coherent-pair", "--starts", "64", "--seed", "42"]) == 0
    capsys.readouterr()
    assert work == [526, 15048]


def test_setulb_keeps_its_argument_list():
    # The search drives scipy's private L-BFGS-B routine by reverse
    # communication, with the C port's argument list (scipy >= 1.15).  A
    # release that moves it fails here, not in the search's numbers.
    from scipy.optimize import _lbfgsb

    signature = _lbfgsb.setulb.__doc__.splitlines()[0].replace(" ", "")
    assert signature == "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"


def start_draws(view: SearchView, starts: int, seed: int) -> list:
    """The search's start points: start k is a uniform draw over the box from
    ``default_rng([seed, k])``."""
    lo, hi = np.array(view.lower), np.array(view.upper)
    return [lo + (hi - lo) * np.random.default_rng([seed, k]).uniform(size=view.dim) for k in range(starts)]


def point_stencil(view: SearchView, x: np.ndarray):
    """-F at ``x`` and its forward-difference gradient, None where that is
    undefined, from one closed-form call over ``x``'s own stencil: the point
    and its steps of 1e-8, each flipped inward past the upper bound, with
    x + 0.0 off the diagonal.  The per-point reference for the search's
    whole-array rounds."""
    dim = view.dim
    h = np.where(x + 1e-8 > view.hi, -1e-8, 1e-8)
    rows, steps = np.empty((dim + 1, dim)), np.zeros((dim, dim))
    steps.flat[:: dim + 1] = h
    rows[0] = x
    np.add(x, steps, out=rows[1:])
    neg = -objective_F(view, view.clamp(rows))
    step = (x + h) - x
    finite = np.count_nonzero(np.isfinite(neg)) == neg.size and np.count_nonzero(step) == step.size
    return neg[0], (neg[1:] - neg[0]) / step if finite else None


class _Ended(Exception):
    """Stops a reference run where its gradient is undefined."""


def reference_ascend(view: SearchView, start) -> Extremum | None:
    """One start as one ``scipy.optimize.minimize`` L-BFGS-B run: the
    per-start ascent the lockstep search replaces, kept here as its
    reference.  None where F at the start is undefined."""
    from scipy import optimize

    p0 = view.clamp(np.asarray(start, dtype=float))
    lo, hi = view.lo, view.hi
    evaluated = {}

    def evaluate(x):
        key = x.tobytes()
        if key not in evaluated:
            evaluated[key] = point_stencil(view, x)
        return evaluated[key]

    def defined(x):
        neg_f, grad = evaluate(x)
        if grad is None:
            raise _Ended
        return neg_f, grad

    f0 = -evaluate(p0)[0]
    if not math.isfinite(f0):
        return None
    iterates = [p0]
    options = {"maxiter": optimizer.MAX_ITERS, "maxfun": optimizer._MAXFUN, "gtol": GRAD_TOL / math.sqrt(view.dim),
               "ftol": 0.0}
    try:
        res = optimize.minimize(
            lambda x: defined(x)[0], p0, jac=lambda x: defined(x)[1], method="L-BFGS-B",
            bounds=optimize.Bounds(lo, hi), callback=lambda xk: iterates.append(xk), options=options,
        )
    except _Ended:
        last = iterates[-1]
        p, f = last if last is p0 else view.clamp(last), -evaluate(last)[0]
        iterations, grad_norm, converged = len(iterates) - 1, None, False
    else:
        # F is read at res.x, not taken from res.fun: after a line search
        # that ends abnormally, setulb restores x and g but not f, so res.fun
        # is the last trial's F.
        p, f, iterations = view.clamp(res.x), -evaluate(res.x)[0], int(res.nit)
        g = np.where(((p <= lo) & (res.jac > 0.0)) | ((p >= hi) & (res.jac < 0.0)), 0.0, res.jac)
        grad_norm = float(np.linalg.norm(g))
        converged = bool(res.success) and grad_norm <= GRAD_TOL
    m = view.moments_of(p)
    return Extremum(tuple(float(v) for v in p), float(f), float(m.n1), float(m.R1), float(m.gamma1),
                    grad_norm, iterations, converged)


def reference_multi_start(view: SearchView, starts: int, seed: int) -> tuple[MultiStartReport, list]:
    """The report of per-start ``minimize`` runs, with each start's own outcome
    (its Extremum, or None where its start is undefined)."""
    outcomes = [reference_ascend(view, p0) for p0 in start_draws(view, starts, seed)]
    results = sorted(((-e.F, k, e) for k, e in enumerate(outcomes) if e is not None), key=lambda item: item[:2])
    canonical = view.canonical or (lambda v: v)
    reps = []
    for _, _, ext in results:
        cp = canonical(view.clamp(np.array(ext.params)))
        for idx, (rep_cp, rep) in enumerate(reps):
            diff = np.abs(cp - rep_cp)
            if np.max(np.where(view.wraps, np.minimum(diff, 2.0 * PI - diff), diff)) <= CLUSTER_RADIUS:
                reps[idx] = (rep_cp, dataclasses.replace(rep, members=rep.members + 1))
                break
        else:
            reps.append((cp, ext))
    report = MultiStartReport(tuple(rep for _, rep in reps), starts - len(results))
    return report, outcomes


class TestLockstepMatchesMinimize:
    """The lockstep search gives, start for start and bit for bit, what one
    ``scipy.optimize.minimize`` run per start gives on the installed scipy."""

    @staticmethod
    def check(space: SearchView, starts: int, seed: int) -> list:
        report, expected = reference_multi_start(space, starts, seed)
        outcomes = _lockstep(space, start_draws(space, starts, seed))
        assert [repr(o) for o in outcomes] == [repr(e) for e in expected]
        assert repr(multi_start(space, starts, seed)) == repr(report)
        return expected

    @pytest.mark.parametrize("seed", [42, 7, 6])
    @pytest.mark.parametrize("name", ["coherent-pair", "coherent-pair-free", "vacuum-squeezed"])
    def test_every_start_matches(self, name, seed):
        expected = self.check(view(name), 64, seed)
        if (name, seed) == ("coherent-pair", 6):
            # Start 25 ends where its unbounded phase outgrew the step.
            assert expected[25].grad_norm is None and expected[25].iterations > 0

    def test_iteration_cap_ends_the_runs(self, monkeypatch):
        monkeypatch.setattr(optimizer, "MAX_ITERS", 3)
        expected = self.check(view("coherent-pair"), 64, 42)
        assert sum(e.iterations == 3 and not e.converged for e in expected) > 32

    @pytest.mark.parametrize("maxfun", [5, 12, 30])
    def test_evaluation_cap_ends_the_runs(self, monkeypatch, maxfun):
        # The reference runs minimize with options["maxfun"] at the same cap.
        monkeypatch.setattr(optimizer, "_MAXFUN", maxfun)
        expected = self.check(view("coherent-pair"), 16, 42)
        assert any(not e.converged and e.grad_norm is not None for e in expected)
        assert max(e.iterations for e in expected) <= maxfun

    def test_degenerate_draws(self):
        expected = self.check(half_degenerate_view(), 16, 5)
        assert 0 < expected.count(None) < 16


@pytest.mark.parametrize("seed", [42, 7, 1])
@pytest.mark.parametrize("name", ["coherent-pair", "coherent-pair-free"])
def test_extremum_F_is_read_at_its_point(name, seed):
    # A line search that ends abnormally leaves setulb's f at its last trial
    # while x returns to the last iterate; each extremum's F is F at its point.
    space = view(name)
    for ext in multi_start(space, 64, seed).extrema:
        assert ext.F == objective_F(space, np.array(ext.params))


@pytest.mark.parametrize(
    "name, seed", [("coherent-pair", 42), ("coherent-pair", 6), ("half-degenerate", 5)]
)
def test_lockstep_width_changes_no_result(monkeypatch, name, seed):
    # How many runs share a round changes only how the stencils are batched:
    # one at a time, four, and all 64 at once give the same outcomes, start
    # 25's vanishing step at seed 6 and the degenerate draws at seed 5 among
    # them.
    space = half_degenerate_view() if name == "half-degenerate" else view(name)
    runs = []
    for width in (1, 4, 64):
        monkeypatch.setattr(optimizer, "_WIDTH", width)
        runs.append([repr(o) for o in _lockstep(space, start_draws(space, 64, seed))])
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("seed", [42, 7, 1, 6])
@pytest.mark.parametrize("name", ["coherent-pair", "coherent-pair-free", "vacuum-squeezed"])
def test_end_point_moments_are_one_call(monkeypatch, name, seed):
    # Outside the stencils, the driver makes one closed-form call, over every
    # finished start's end point, and each extremum's n, R and gamma are bit
    # for bit what its own point's call gives.
    base, batches, inside = view(name), [], []

    def stencil_objective(space, params):
        inside.append(True)
        try:
            return objective_F(space, params)
        finally:
            inside.pop()

    monkeypatch.setattr(optimizer, "objective_F", stencil_objective)
    space = dataclasses.replace(base, moments_of=lambda p: batches.append((bool(inside), p.shape)) or base.moments_of(p))
    finished = [e for e in _lockstep(space, start_draws(space, 64, seed)) if e is not None]
    assert [shape for stencil, shape in batches if not stencil] == [(len(finished), space.dim)]
    for ext in finished:
        m = base.moments_of(np.array(ext.params))
        assert [np.float64(v).tobytes() for v in (ext.n, ext.R, ext.gamma)] == [
            np.float64(v).tobytes() for v in (m.n1, m.R1, m.gamma1)
        ]


def test_one_round_of_stencils_matches_each_point_alone():
    # One whole-array round gives, point for point and bit for bit, what each
    # point's own stencil gives, from the same rows of the closed form.
    from subvacuum.optimizer import _stencils

    base, batches = view("coherent-pair"), []
    space = dataclasses.replace(base, moments_of=lambda p: batches.append(p.copy()) or base.moments_of(p))
    points = [
        np.array([0.7, 1.1, 0.9, 2.0, 4.0]),  # interior
        np.array([0.7, 3.0 - 5e-9, 0.9, 2.0, 4.0]),  # beta's step passes its bound and flips inward
        np.array([-0.0, 1.1, 0.9, -0.0, 4.0]),  # -0.0 becomes 0.0 off the diagonal
        np.array([1.0, 1.0, 1.0, 0.0, PI]),  # |1> - |1>: a degenerate row
        np.array([0.7, 1.1, 0.9, 2.0, 5e8 + 0.25]),  # (x + h) - x is 0 for delta
    ]
    got = _stencils(space, points)
    expected = [point_stencil(space, x) for x in points]
    whole, *each = batches
    assert whole.tobytes() == np.concatenate(each).tobytes()
    assert [g is None for _, g in expected] == [False, False, False, True, True]
    assert [g is None for _, g in got] == [g is None for _, g in expected]
    assert [np.float64(f).tobytes() for f, _ in got] == [np.float64(f).tobytes() for f, _ in expected]
    assert [g.tobytes() for _, g in got if g is not None] == [g.tobytes() for _, g in expected if g is not None]
