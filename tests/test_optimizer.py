"""The L-BFGS-B search: objective, single ascents, multi-start dedup and budget."""

import dataclasses
import math

import numpy as np
import pytest

from subvacuum.optimizer import (
    CLUSTER_RADIUS,
    AscentFailure,
    SearchConfig,
    ascend,
    multi_start,
    objective_F,
)
from subvacuum.state_families import (
    SEARCHES,
    CoherentSqueezed,
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
        cfg = SearchConfig()
        assert cfg.starts == 64 and cfg.max_iters == 500

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"starts": 0},
            {"grad_tol": 0.0},
            {"max_iters": 0},
        ],
    )
    def test_rejects_bad_hyperparameters(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)


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
        ext = ascend(space, [0.0, 0.0], SearchConfig(starts=1, seed=0))
        assert ext.converged
        assert ext.grad_norm <= 1e-7
        assert ext.params[0] == pytest.approx(1.0, abs=1e-6)
        assert ext.params[1] == pytest.approx(-0.5, abs=1e-6)
        assert ext.F == pytest.approx(3.0, abs=1e-12)

    def test_start_at_maximum_terminates_immediately(self):
        space = quadratic_view()
        ext = ascend(space, [1.0, -0.5], SearchConfig(starts=1, seed=0))
        assert ext.converged
        assert ext.iterations == 0
        assert ext.F == pytest.approx(3.0)

    def test_pins_to_boundary_when_maximum_lies_outside(self):
        space = quadratic_view(lower=(-10.0, -10.0), upper=(0.5, 10.0))
        ext = ascend(space, [-1.0, 0.0], SearchConfig(starts=1, seed=0))
        assert ext.converged
        assert ext.params[0] == pytest.approx(0.5, abs=1e-9)
        assert ext.params[1] == pytest.approx(-0.5, abs=1e-6)

    def test_degenerate_start_raises(self):
        space = view("coherent-pair")
        with pytest.raises(AscentFailure, match="undefined"):
            ascend(space, [0.5, 0.5, 1.0, 0.0, PI], SearchConfig(starts=1, seed=0))

    def test_never_finishes_below_its_start(self):
        space = view("coherent-pair")
        cfg = SearchConfig(starts=1, seed=0, max_iters=40)
        rng = np.random.default_rng(9)
        lo, hi = np.array(space.lower), np.array(space.upper)
        for _ in range(20):
            p0 = lo + (hi - lo) * rng.uniform(size=space.dim)
            f0 = objective_F(space, p0)
            if not math.isfinite(f0):
                continue
            ext = ascend(space, p0, cfg)
            assert ext.F >= f0 - 1e-12

    def test_degenerate_line_search_point_ends_at_last_finite_iterate(self):
        space = half_degenerate_view()
        f0 = objective_F(space, np.array([0.0]))
        ext = ascend(space, [0.0], SearchConfig(starts=1, seed=0))
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
        ext = ascend(space, [start], SearchConfig(starts=1, seed=0))
        assert ext.params == (start,) and ext.iterations == 0
        assert not ext.converged and ext.grad_norm is None
        assert ext.F == objective_F(space, np.array([start]))

    def test_no_point_is_evaluated_twice(self):
        # Start 10 at seed 42 revisits a point on the box edge.  F at the
        # start is row 0 of the first gradient stencil, and a revisited point
        # is not evaluated again: every batch but the last (the result's
        # moments) is a distinct stencil.
        base = view("coherent-pair")
        batches = []
        space = dataclasses.replace(base, moments_of=lambda p: batches.append(np.array(p)) or base.moments_of(p))
        lo, hi = np.array(space.lower), np.array(space.upper)
        start = lo + (hi - lo) * np.random.default_rng([42, 10]).uniform(size=space.dim)
        ascend(space, start, SearchConfig())
        *stencils, last = batches
        assert last.shape == (space.dim,)
        assert all(b.shape == (space.dim + 1, space.dim) for b in stencils)
        assert len({b.tobytes() for b in stencils}) == len(stencils) == 36
        assert stencils[0][0].tobytes() == space.clamp(start).tobytes()


class TestMultiStart:
    def test_deterministic_and_fully_accounted(self):
        space = view("coherent-pair")
        cfg = SearchConfig(starts=8, seed=42)
        report = multi_start(space, cfg)
        assert report == multi_start(space, cfg)
        assert report.starts == 8 and report.seed == 42
        assert report.failed_starts == 0
        assert sum(e.members for e in report.extrema) == 8

    def test_sorted_descending_and_near_ridge_top(self):
        space = view("coherent-pair")
        report = multi_start(space, SearchConfig(starts=8, seed=42))
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
        report = multi_start(space, SearchConfig(starts=8, seed=42))
        reps = [space.canonical(np.array(e.params)) for e in report.extrema]
        angular = np.array(space.angular)
        for i, a in enumerate(reps):
            for b in reps[:i]:
                diff = np.abs(a - b)
                diff = np.where(angular, np.minimum(diff, 2.0 * PI - diff), diff)
                assert diff.max() > CLUSTER_RADIUS
        assert sum(e.members for e in report.extrema) == report.starts

    def test_degenerate_draws_fail_and_the_rest_are_clustered(self):
        space = half_degenerate_view()
        report = multi_start(space, SearchConfig(starts=16, seed=5))
        drawn = [-10.0 + 20.0 * np.random.default_rng([5, k]).uniform(size=1)[0] for k in range(16)]
        assert report.failed_starts == sum(d > 2.0 for d in drawn) > 0
        assert sum(e.members for e in report.extrema) == sum(d <= 2.0 for d in drawn)
        assert all(not e.converged for e in report.extrema)

    def test_evaluation_budget_and_ridge_hits(self):
        # 64 starts at seed 42 evaluate 15,112 points in 2,572 batches (each
        # gradient is one batch of the point and its 5-point stencil, no
        # point is evaluated twice in a run, and each start's result is one
        # more batch of one) and put 55 starts within 1e-9 of W(1/e); the
        # bounds leave room for changes in scipy's line search.
        points = batches = 0
        base = view("coherent-pair")

        def counted(p):
            nonlocal points, batches
            batches += 1
            points += len(np.atleast_2d(p))
            return base.moments_of(p)

        space = dataclasses.replace(base, moments_of=counted)
        report = multi_start(space, SearchConfig(starts=64, seed=42))
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
        cfg = SearchConfig(starts=64, seed=6)
        report = multi_start(space, cfg)
        assert report.failed_starts == 0
        assert sum(e.members for e in report.extrema) == 64
        lo, hi = np.array(space.lower), np.array(space.upper)
        start = lo + (hi - lo) * np.random.default_rng([6, 25]).uniform(size=space.dim)
        ext = ascend(space, start, cfg)
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
        report = multi_start(space, SearchConfig(starts=6, seed=3))
        assert len(report.extrema) == 1
        top = report.extrema[0]
        assert top.params == (3.0,)
        assert top.converged and top.grad_norm == 0.0
        assert top.members == 6
        m = coherent_plus_squeezed_moments(CoherentSqueezed(r=3.0, delta=0.0, alpha=0.0, eta=-1.0))
        assert top.F == m.excess


def test_search_work_is_pinned(monkeypatch, capsys):
    # The closed-form batches and evaluated rows of the 64-start search at
    # seed 42, the work the search-ascent benchmark times.  A change that
    # moves either count changes the runs themselves, not only their cost.
    from subvacuum import optimizer
    from subvacuum.cli import main

    work = [0, 0]

    def counted(space, params):
        work[0] += 1
        work[1] += len(np.atleast_2d(params))
        return objective_F(space, params)

    monkeypatch.setattr(optimizer, "objective_F", counted)
    assert main(["search", "--family", "coherent-pair", "--starts", "64", "--seed", "42"]) == 0
    capsys.readouterr()
    assert work == [2508, 15048]
