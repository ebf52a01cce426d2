"""Density evaluators, closed-form minima, and the grid+polish minimizer."""

import math

import mpmath
import numpy as np
import pytest

from subvacuum.state_families import (
    ONE_MODE,
    BarnettRadmore,
    OneModeMoments,
    TwoModeMoments,
    ZhangReal,
    barnett_radmore_moments,
    f_sigma,
    squeezed_vacuum_moments,
    zhang_moments,
)
from subvacuum.energy_density import (
    ModeGeometry,
    SpacetimePoint,
    br_vs_2sq_gap,
    density_profile,
    rho_min_br_closed,
    rho_min_ecs_aligned,
    rho_min_one_mode,
    rho_min_two_mode_numeric,
    rho_two_mode,
    spacetime_average,
)

ZERO_MOMENTS = TwoModeMoments(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

# sinh(1) * (2 sqrt(w1 w2) cosh(1) - (w1 + w2) sinh(1)), negated
BR_MIN_R1 = {
    (1.0, 1.0): -0.8646647167633873,
    (1.0, 2.0): -0.9858616409858222,
    (1.0, 1.5): -0.9892340699093037,
}


def one_mode_reference(m: OneModeMoments, omega: float, kind: str, u) -> float:
    """Single-mode density written out with math.cos.

    Traveling: ``u`` is the propagation phase 2(k.x - omega t) and
    rho = omega (n + R cos(u + gamma)).  Standing: ``u`` is the pair (x, t)
    and rho = omega (n + R cos(2 omega x) cos(2 omega t - gamma)).
    """
    if kind == "traveling":
        return omega * (m.n + m.pair_mag * math.cos(u + m.pair_phase))
    x, t = u
    return omega * (
        m.n + m.pair_mag * math.cos(2.0 * omega * x) * math.cos(2.0 * omega * t - m.pair_phase)
    )


class TestModeGeometry:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ModeGeometry("radial", 1.0, 1.0)

    @pytest.mark.parametrize(
        "w1,w2", [(0.0, 1.0), (1.0, -2.0), (-1.0, -1.0), (math.inf, 1.0), (1.0, math.nan)]
    )
    def test_rejects_nonpositive_or_non_finite_frequencies(self, w1, w2):
        with pytest.raises(ValueError, match="positive and finite"):
            ModeGeometry("traveling", w1, w2)

    @pytest.mark.parametrize("kind", ["traveling", "standing"])
    @pytest.mark.parametrize("c", [1.0 + 1e-12, -2.0, math.nan])
    def test_rejects_cosangle_outside_unit_interval(self, kind, c):
        with pytest.raises(ValueError, match="cosangle"):
            ModeGeometry(kind, 1.0, 1.0, c)

    def test_default_is_aligned(self):
        assert ModeGeometry("traveling", 1.0, 3.0).cosangle == 1.0

    @pytest.mark.parametrize("c", [0.0, 0.3, -0.5, -1.0])
    def test_directions_follow_cosangle(self, c):
        # khat1 = +z and khat2 = (sqrt(1 - c^2), 0, c); the cross channels
        # carry sqrt(w1 w2) (1 + c).
        m = barnett_radmore_moments(BarnettRadmore(r=0.7, delta=1.2))
        w1, w2 = 1.0, 2.0
        g = ModeGeometry("traveling", w1, w2, c)
        x, t = (0.4, -0.3, 1.1), 0.6
        k1x = w1 * x[2]
        k2x = w2 * (math.sqrt(1.0 - c * c) * x[0] + c * x[2])
        geom = math.sqrt(w1 * w2) * (1.0 + c)
        expected = (
            m.n1 * w1
            + m.n2 * w2
            + m.R3 * geom * math.cos((k2x - k1x) - (w2 - w1) * t + m.gamma3)
            + m.R4 * geom * math.cos((k2x + k1x) - (w2 + w1) * t + m.gamma4)
        )  # R1 = R2 = 0 for this family
        assert rho_two_mode(m, g, SpacetimePoint(x=x, t=t)) == pytest.approx(expected, rel=1e-13, abs=1e-13)


class TestSpacetimePoint:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SpacetimePoint(x=(0.0, math.nan, 0.0), t=0.0)
        with pytest.raises(ValueError, match="finite"):
            SpacetimePoint(x=(0.0, 0.0, 0.0), t=math.inf)


class TestOneMode:
    """One-mode states are lifted into mode 1 of the two-mode density."""

    def test_traveling_value_at_zero_phase(self):
        m = OneModeMoments(n=0.5, pair_mag=0.3, pair_phase=0.0, excess=-0.2)
        p = SpacetimePoint(x=(0.0, 0.0, 0.0), t=0.0)
        assert rho_two_mode(ONE_MODE.lift(m), ModeGeometry("traveling", 2.0, 1.0), p) == pytest.approx(
            2.0 * 0.8, abs=1e-15
        )

    def test_traveling_floor_attained_where_cosine_is_minus_one(self):
        # At x = 0 the propagation phase -2 omega t reaches pi - gamma.
        m = squeezed_vacuum_moments(1.0, 0.7)
        omega = 1.7
        p = SpacetimePoint(x=(0.0, 0.0, 0.0), t=-(math.pi - m.pair_phase) / (2.0 * omega))
        assert rho_two_mode(ONE_MODE.lift(m), ModeGeometry("traveling", omega, 1.0), p) == pytest.approx(
            -omega * (m.pair_mag - m.n), abs=1e-12
        )

    @pytest.mark.parametrize(
        "kind,r,phi,omega", [("traveling", 0.8, 2.1, 2.0), ("standing", 1.2, -0.4, 1.0)]
    )
    def test_numeric_min_matches_closed_floor(self, kind, r, phi, omega):
        m = squeezed_vacuum_moments(r, phi)
        _, val = rho_min_two_mode_numeric(ONE_MODE.lift(m), ModeGeometry(kind, omega, 1.0), 8.0, 64)
        floor = rho_min_one_mode(m, omega)
        assert val >= floor - 1e-12
        assert val == pytest.approx(floor, rel=1e-9)

    def test_negative_floor_iff_pairing_beats_population(self):
        quiet = OneModeMoments(n=0.5, pair_mag=0.2, pair_phase=0.0, excess=-0.3)
        loud = OneModeMoments(n=0.2, pair_mag=0.5, pair_phase=0.0, excess=0.3)
        assert rho_min_one_mode(quiet, 1.0) > 0
        assert rho_min_one_mode(loud, 1.0) < 0

    def test_large_squeeze_floor_has_no_cancellation(self):
        # At r = 10 both moments are ~1.2e8; the floor is -omega (1 - e^{-20}) / 2.
        floor = rho_min_one_mode(squeezed_vacuum_moments(10.0, 0.0), 2.0)
        assert floor == pytest.approx(-(1.0 - math.exp(-20.0)), abs=1e-15)

    @pytest.mark.parametrize("omega", [0.0, -1.0])
    def test_rejects_nonpositive_frequency(self, omega):
        with pytest.raises(ValueError):
            rho_min_one_mode(OneModeMoments(0.1, 0.1, 0.0, 0.0), omega)


class TestTermDeletionReduction:
    """Silencing mode 2 must reproduce the one-mode density.

    With omega = 1 the two-mode formula and the written-out one-mode
    reference perform the same rounded operations, so the match is required
    to be bit-exact; for generic omega the factored vs distributed products
    differ by a few ulp at most.
    """

    def _points(self, rng, count=200):
        for _ in range(count):
            n, pair_mag = float(rng.uniform(0.0, 4.0)), float(rng.uniform(0.0, 4.0))
            m = OneModeMoments(
                n=n,
                pair_mag=pair_mag,
                pair_phase=float(rng.uniform(-math.pi, math.pi)),
                excess=pair_mag - n,
            )
            x = tuple(float(v) for v in rng.uniform(-3.0, 3.0, 3))
            t = float(rng.uniform(-3.0, 3.0))
            yield m, x, t

    def test_traveling_exact_at_unit_frequency(self):
        rng = np.random.default_rng(101)
        g = ModeGeometry("traveling", 1.0, 1.0)
        for m, x, t in self._points(rng):
            p = SpacetimePoint(x=x, t=t)
            k1x = x[2]  # khat1 = +z, omega = 1
            u = 2.0 * (k1x - t)
            assert rho_two_mode(ONE_MODE.lift(m), g, p) == one_mode_reference(
                m, 1.0, "traveling", u
            )

    def test_standing_exact_at_unit_frequency(self):
        rng = np.random.default_rng(102)
        g = ModeGeometry("standing", 1.0, 1.0)
        for m, x, t in self._points(rng):
            p = SpacetimePoint(x=x, t=t)
            assert rho_two_mode(ONE_MODE.lift(m), g, p) == one_mode_reference(
                m, 1.0, "standing", (x[0], t)
            )

    def test_generic_frequency_within_ulp_budget(self):
        rng = np.random.default_rng(103)
        for m, x, t in self._points(rng):
            w = float(rng.uniform(0.2, 5.0))
            g = ModeGeometry("traveling", w, w)
            p = SpacetimePoint(x=x, t=t)
            u = 2.0 * (w * x[2] - w * t)
            a = rho_two_mode(ONE_MODE.lift(m), g, p)
            b = one_mode_reference(m, w, "traveling", u)
            assert a == pytest.approx(b, rel=1e-13, abs=1e-13)


class TestTwoModePointEvaluator:
    def test_vacuum_is_identically_zero(self):
        g = ModeGeometry("traveling", 1.0, 2.0)
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = SpacetimePoint(
                x=tuple(float(v) for v in rng.uniform(-2, 2, 3)),
                t=float(rng.uniform(-2, 2)),
            )
            assert rho_two_mode(ZERO_MOMENTS, g, p) == 0.0

    def test_br_origin_value_traveling_aligned(self):
        # At x=0, t=0 the only surviving oscillation is the R4 channel at
        # phase gamma4 = delta + pi, so rho = 2 sinh^2 r - 2 sinh r cosh r
        # for omega1 = omega2 = 1 and delta = 0.
        r = 1.0
        m = barnett_radmore_moments(BarnettRadmore(r=r, delta=0.0))
        g = ModeGeometry("traveling", 1.0, 1.0)
        p = SpacetimePoint(x=(0.0, 0.0, 0.0), t=0.0)
        s, c = math.sinh(r), math.cosh(r)
        assert rho_two_mode(m, g, p) == pytest.approx(
            2.0 * s * s - 2.0 * s * c, abs=1e-12
        )

    def test_geometric_factor_suppresses_cross_terms_when_antiparallel(self):
        # khat1 . khat2 = -1 kills the (1 + cos) cross weight entirely, so
        # only the single-mode channels remain.
        m = barnett_radmore_moments(BarnettRadmore(r=0.9, delta=0.3))
        g = ModeGeometry("traveling", 1.0, 1.0, -1.0)
        rng = np.random.default_rng(17)
        base = m.n1 * 1.0 + m.n2 * 1.0  # R1 = R2 = 0 for this family
        for _ in range(20):
            p = SpacetimePoint(
                x=tuple(float(v) for v in rng.uniform(-2, 2, 3)),
                t=float(rng.uniform(-2, 2)),
            )
            assert rho_two_mode(m, g, p) == pytest.approx(base, abs=1e-12)


class TestNumericMinimizer:
    def test_rejects_bad_grid_and_window(self):
        g = ModeGeometry("traveling", 1.0, 1.0)
        with pytest.raises(ValueError, match="grid_n"):
            rho_min_two_mode_numeric(ZERO_MOMENTS, g, 8.0, 15)
        with pytest.raises(ValueError, match="window"):
            rho_min_two_mode_numeric(ZERO_MOMENTS, g, 0.0, 32)

    def test_rejects_non_finite_moments(self):
        bad = TwoModeMoments(
            math.nan, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
        )
        g = ModeGeometry("traveling", 1.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            rho_min_two_mode_numeric(bad, g, 8.0, 32)

    @pytest.mark.parametrize("w1,w2", sorted(BR_MIN_R1))
    def test_br_aligned_matches_closed_form(self, w1, w2):
        m = barnett_radmore_moments(BarnettRadmore(r=1.0, delta=0.0))
        g = ModeGeometry("traveling", w1, w2)
        _, val = rho_min_two_mode_numeric(m, g, 8.0, 64)
        closed = rho_min_br_closed(1.0, w1, w2)
        assert closed == pytest.approx(BR_MIN_R1[(w1, w2)], abs=1e-12)
        assert val == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("w1,w2", [(1.0, 1.0), (1.0, 2.0), (1.0, 1.5)])
    def test_zhang_orthogonal_matches_closed_form(self, w1, w2):
        # With R3 = R4 = 0 the cross channels drop out, and non-parallel
        # directions decouple the two propagation phases, so both cosines
        # reach -1 and the floor is -(w1 + w2)(R1 - n1).
        m = zhang_moments(ZhangReal(r=0.007, theta=0.99 * math.pi))
        g = ModeGeometry("traveling", w1, w2, 0.0)
        _, val = rho_min_two_mode_numeric(m, g, 8.0, 64)
        closed = -(w1 + w2) * (m.R1 - m.n1)
        assert val == pytest.approx(closed, rel=1e-9)

    def test_aligned_commensurate_phases_cannot_both_bottom_out(self):
        # Parallel ratio-2 modes share one propagation coordinate, so the
        # two Zhang cosines are locked to arguments in ratio 2 and the
        # decoupled floor is strictly unattainable.
        m = zhang_moments(ZhangReal(r=0.007, theta=0.99 * math.pi))
        g = ModeGeometry("traveling", 1.0, 2.0)
        _, val = rho_min_two_mode_numeric(m, g, 8.0, 64)
        assert val > -(3.0) * (m.R1 - m.n1) + 1e-3

    def test_min_point_tie_breaks_toward_origin(self):
        m = barnett_radmore_moments(BarnettRadmore(r=1.0, delta=0.0))
        g = ModeGeometry("traveling", 1.0, 1.0)
        point, val = rho_min_two_mode_numeric(m, g, 8.0, 48)
        # The minimum lies on the ridge s = t; the scan order puts (0, 0)
        # first and the polish has nowhere better to go.
        assert point.t == pytest.approx(0.0, abs=1e-6)
        assert point.x[2] == pytest.approx(0.0, abs=1e-6)
        assert val == pytest.approx(rho_min_br_closed(1.0, 1.0, 1.0), rel=1e-9)

    def test_vacuum_min_is_zero_at_origin(self):
        g = ModeGeometry("standing", 1.0, 2.0)
        point, val = rho_min_two_mode_numeric(ZERO_MOMENTS, g, 8.0, 32)
        assert val == 0.0
        assert point.t == 0.0 and point.x == (0.0, 0.0, 0.0)


# Standing, aligned (c = 1), perpendicular (c = 0) and skew (c = 0.3) modes.
PROFILE_GEOMETRIES = {
    "standing": ModeGeometry("standing", 1.0, 2.0),
    "aligned": ModeGeometry("traveling", 1.0, 2.0),
    "perpendicular": ModeGeometry("traveling", 1.0, 2.0, 0.0),
    "skew": ModeGeometry("traveling", 1.0, 2.0, 0.3),
}


class TestDensityProfile:
    @pytest.mark.parametrize("name", sorted(PROFILE_GEOMETRIES))
    def test_min_not_above_any_sample(self, name):
        m = zhang_moments(ZhangReal(r=0.01, theta=0.95 * math.pi))
        g = PROFILE_GEOMETRIES[name]
        prof = density_profile(m, g, 8.0, 24)
        _, val = prof.min_found
        assert len(prof.samples) == 24 ** (3 if name in ("perpendicular", "skew") else 2)
        assert all(val <= rho for *_, rho in prof.samples.tolist())

    def test_sample_count_by_geometry(self):
        m = barnett_radmore_moments(BarnettRadmore(r=0.3, delta=0.0))
        aligned = density_profile(m, ModeGeometry("traveling", 1.0, 2.0), 4.0, 16)
        assert aligned.samples.shape == (16 * 16, 5)
        # Aligned modes along z: rows run over t, then x3, on the scan axis.
        axis = np.linspace(0.0, 4.0, 16)
        x1, x2, x3, t, _ = aligned.samples.T
        assert np.array_equal(t, np.repeat(axis, 16))
        assert np.array_equal(x3, np.tile(axis, 16))
        assert not x1.any() and not x2.any()
        skew = density_profile(
            m,
            ModeGeometry("traveling", 1.0, 2.0, 0.0),
            4.0,
            16,
        )
        assert skew.samples.shape == (16 * 16 * 16, 5)

    @pytest.mark.parametrize(
        "g",
        [*PROFILE_GEOMETRIES.values(), ModeGeometry("traveling", 1.0, 2.0, -0.5)],
        ids=[*PROFILE_GEOMETRIES, "obtuse"],
    )
    def test_every_t_block_repeats_the_spatial_columns(self, g):
        # The CLI formats the spatial columns once and reuses them for every t.
        m = barnett_radmore_moments(BarnettRadmore(r=0.7, delta=1.2))
        samples = density_profile(m, g, 8.0, 17).samples
        blocks = samples.view(np.uint64).reshape(17, -1, 5)
        assert (blocks[:, :, :3] == blocks[:1, :, :3]).all()
        assert (blocks[:, :, 3] == blocks[:, :1, 3]).all()

    @pytest.mark.parametrize("name", sorted(PROFILE_GEOMETRIES))
    def test_min_found_is_the_numeric_minimum(self, name):
        # One scan serves both the samples and the polished minimum.
        m = barnett_radmore_moments(BarnettRadmore(r=0.7, delta=1.2))
        g = PROFILE_GEOMETRIES[name]
        assert density_profile(m, g, 8.0, 17).min_found == rho_min_two_mode_numeric(m, g, 8.0, 17)

    @pytest.mark.parametrize("name", sorted(PROFILE_GEOMETRIES))
    def test_samples_reproduce_point_evaluator(self, name):
        # Samples are the scan's values at span coordinates; the point
        # evaluator recomputes the phases from the exported Cartesian x.  For
        # skew modes those phases round differently, within a few ulps.
        m = barnett_radmore_moments(BarnettRadmore(r=0.7, delta=1.2))
        g = PROFILE_GEOMETRIES[name]
        prof = density_profile(m, g, 6.0, 16)
        tol = 1e-13 if name == "skew" else 0.0
        for x1, x2, x3, t, rho in prof.samples.tolist():
            assert abs(rho - rho_two_mode(m, g, SpacetimePoint(x=(x1, x2, x3), t=t))) <= tol


class TestClosedForms:
    def test_br_min_values(self):
        for (w1, w2), expected in BR_MIN_R1.items():
            assert rho_min_br_closed(1.0, w1, w2) == pytest.approx(
                expected, abs=1e-12
            )

    @pytest.mark.parametrize("w1,w2", sorted(BR_MIN_R1))
    def test_br_min_phase_independent(self, w1, w2):
        # The squeeze phase moves the minimum but not its depth: the numeric
        # minimizer finds the closed depth at every delta.
        closed = rho_min_br_closed(0.8, w1, w2)
        for delta in (0.0, 0.4, -2.0, math.pi):
            m = barnett_radmore_moments(BarnettRadmore(r=0.8, delta=delta))
            _, val = rho_min_two_mode_numeric(m, ModeGeometry("traveling", w1, w2), 8.0, 64)
            assert val == pytest.approx(closed, rel=1e-6)

    def test_br_min_positive_when_frequencies_far_apart(self):
        # 2 sqrt(w1 w2) cosh r < (w1 + w2) sinh r for strongly mismatched
        # frequencies, so no point of this state dips below zero.
        assert rho_min_br_closed(1.0, 1.0, 10.0) > 0

    def test_br_min_validation(self):
        with pytest.raises(ValueError):
            rho_min_br_closed(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            rho_min_br_closed(1.0, 0.0, 1.0)

    def test_gap_identity_against_component_minima(self):
        # The gap is exactly (two one-mode floors) minus (the joint floor):
        # sinh r cosh r (sqrt(w1) - sqrt(w2))^2.
        for r in (0.3, 1.0, 2.0):
            m = squeezed_vacuum_moments(r, 0.0)
            for w1, w2 in [(0.5, 2.0), (1.0, 1.0), (1.0, 3.0), (2.0, 2.5)]:
                two_separate = rho_min_one_mode(m, w1) + rho_min_one_mode(m, w2)
                joint = rho_min_br_closed(r, w1, w2)
                assert br_vs_2sq_gap(r, w1, w2) == pytest.approx(
                    joint - two_separate, rel=1e-12, abs=1e-12
                )

    @pytest.mark.parametrize("w1,w2", [(1.0, 1.0), (1.0, 2.0), (1.0, 1.5)])
    @pytest.mark.parametrize("r", [1.0, 10.0, 20.0])
    def test_br_min_and_gap_match_50_digit_reference(self, r, w1, w2):
        # The plain product form loses everything at equal frequencies and
        # large r (it gave -0.0 at r = 20, where the depth is -1).  Measured
        # worst relative errors here: 2.2e-16 (minimum), 1.9e-16 (gap).
        with mpmath.workdps(50):
            s, c = mpmath.sinh(r), mpmath.cosh(r)
            depth = -s * (2 * mpmath.sqrt(w1 * w2) * c - (w1 + w2) * s)
            gap = s * c * (mpmath.sqrt(w1) - mpmath.sqrt(w2)) ** 2
            assert abs((rho_min_br_closed(r, w1, w2) - depth) / depth) <= 1e-15
            assert abs(br_vs_2sq_gap(r, w1, w2) - gap) <= 1e-15 * gap

    def test_gap_grid_nonnegative_zero_iff_equal_frequencies(self):
        freqs = (0.5, 1.0, 2.0, 3.0)
        for r in (0.3, 1.0, 2.0):
            for w1 in freqs:
                for w2 in freqs:
                    gap = br_vs_2sq_gap(r, w1, w2)
                    if w1 == w2:
                        assert gap == 0.0
                    else:
                        assert gap > 0.0

    def test_gap_validation(self):
        with pytest.raises(ValueError):
            br_vs_2sq_gap(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            br_vs_2sq_gap(1.0, -1.0, 1.0)

    def test_ecs_min_is_scaled_f(self):
        assert rho_min_ecs_aligned(0.7, 1.0) == pytest.approx(
            -4.0 * f_sigma(0.7), abs=1e-15
        )
        assert rho_min_ecs_aligned(0.7, 2.5) == pytest.approx(
            -4.0 * 2.5 * f_sigma(0.7), rel=1e-15
        )
        # -4 f(0.7) = -0.886781602521043, inside the advertised -0.88 +/- 0.04
        assert rho_min_ecs_aligned(0.7, 1.0) == pytest.approx(
            -0.886781602521043, abs=1e-12
        )

    def test_ecs_min_validation(self):
        with pytest.raises(ValueError):
            rho_min_ecs_aligned(0.7, 0.0)


class TestSpacetimeAverage:
    def test_equals_population_weighted_frequencies(self):
        m = barnett_radmore_moments(BarnettRadmore(r=0.8, delta=1.1))
        g = ModeGeometry("traveling", 1.0, 2.0)
        s = math.sinh(0.8)
        assert spacetime_average(m, g) == pytest.approx(3.0 * s * s, rel=1e-14)

    def test_matches_equally_spaced_time_quadrature(self):
        # Over the common period 2 pi (ratio-2 frequencies) every oscillatory
        # channel is a pure harmonic of order < 64, which a 64-point
        # equally spaced Riemann sum annihilates exactly.
        m = barnett_radmore_moments(BarnettRadmore(r=0.8, delta=1.1))
        g = ModeGeometry("traveling", 1.0, 2.0)
        x = (0.3, -0.2, 0.7)
        ts = np.arange(64) * (2.0 * math.pi / 64)
        quad = float(
            np.mean(
                [
                    rho_two_mode(m, g, SpacetimePoint(x=x, t=float(t)))
                    for t in ts
                ]
            )
        )
        assert quad == pytest.approx(spacetime_average(m, g), abs=1e-9)

    def test_never_negative(self):
        g = ModeGeometry("standing", 0.5, 3.0)
        m = zhang_moments(ZhangReal(r=0.02, theta=0.9 * math.pi))
        assert spacetime_average(m, g) >= 0.0
        assert spacetime_average(ZERO_MOMENTS, g) == 0.0
