"""Density evaluators, closed-form minima, and the grid+polish minimizer."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.optimize

from subvacuum import energy_density as ed
from subvacuum import fock_oracle, verification
from subvacuum.state_families import (
    REGISTRY,
    SCALAR,
    TwoModeMoments,
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

ZERO_MOMENTS = TwoModeMoments(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def one_mode(n, pair_mag, pair_phase, excess) -> TwoModeMoments:
    """A one-mode record: mode 1 carries the moments, mode 2 is empty."""
    return TwoModeMoments(n, 0.0, pair_mag * np.exp(1j * pair_phase), 0.0, 0.0, 0.0, excess)

# sinh(1) * (2 sqrt(w1 w2) cosh(1) - (w1 + w2) sinh(1)), negated
BR_MIN_R1 = {
    (1.0, 1.0): -0.8646647167633873,
    (1.0, 2.0): -0.9858616409858222,
    (1.0, 1.5): -0.9892340699093037,
}


def one_mode_reference(m: TwoModeMoments, omega: float, kind: str, u) -> float:
    """Single-mode density written out with math.cos.

    Traveling: ``u`` is the propagation phase 2(k.x - omega t) and
    rho = omega (n + R cos(u + gamma)).  Standing: ``u`` is the pair (x, t)
    and rho = omega (n + R cos(2 omega x) cos(2 omega t - gamma)).
    """
    if kind == "traveling":
        return omega * (m.n1 + m.R1 * math.cos(u + m.gamma1))
    x, t = u
    return omega * (
        m.n1 + m.R1 * math.cos(2.0 * omega * x) * math.cos(2.0 * omega * t - m.gamma1)
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
        m = barnett_radmore_moments(r=0.7, delta=1.2)
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
    """One-mode states occupy mode 1 of the two-mode density."""

    def test_traveling_value_at_zero_phase(self):
        m = one_mode(n=0.5, pair_mag=0.3, pair_phase=0.0, excess=-0.2)
        p = SpacetimePoint(x=(0.0, 0.0, 0.0), t=0.0)
        assert rho_two_mode(m, ModeGeometry("traveling", 2.0, 1.0), p) == pytest.approx(
            2.0 * 0.8, abs=1e-15
        )

    def test_traveling_floor_attained_where_cosine_is_minus_one(self):
        # At x = 0 the propagation phase -2 omega t reaches pi - gamma.
        m = squeezed_vacuum_moments(1.0, 0.7)
        omega = 1.7
        p = SpacetimePoint(x=(0.0, 0.0, 0.0), t=-(math.pi - m.gamma1) / (2.0 * omega))
        assert rho_two_mode(m, ModeGeometry("traveling", omega, 1.0), p) == pytest.approx(
            -omega * (m.R1 - m.n1), abs=1e-12
        )

    @pytest.mark.parametrize(
        "kind,r,phi,omega", [("traveling", 0.8, 2.1, 2.0), ("standing", 1.2, -0.4, 1.0)]
    )
    def test_numeric_min_matches_closed_floor(self, kind, r, phi, omega):
        m = squeezed_vacuum_moments(r, phi)
        _, val = rho_min_two_mode_numeric(m, ModeGeometry(kind, omega, 1.0), 8.0, 64)
        floor = rho_min_one_mode(m, omega)
        assert val >= floor - 1e-12
        assert val == pytest.approx(floor, rel=1e-9)

    def test_negative_floor_iff_pairing_beats_population(self):
        quiet = one_mode(n=0.5, pair_mag=0.2, pair_phase=0.0, excess=-0.3)
        loud = one_mode(n=0.2, pair_mag=0.5, pair_phase=0.0, excess=0.3)
        assert rho_min_one_mode(quiet, 1.0) > 0
        assert rho_min_one_mode(loud, 1.0) < 0

    def test_large_squeeze_floor_has_no_cancellation(self):
        # At r = 10 both moments are ~1.2e8; the floor is -omega (1 - e^{-20}) / 2.
        floor = rho_min_one_mode(squeezed_vacuum_moments(10.0, 0.0), 2.0)
        assert floor == pytest.approx(-(1.0 - math.exp(-20.0)), abs=1e-15)

    @pytest.mark.parametrize("omega", [0.0, -1.0])
    def test_rejects_nonpositive_frequency(self, omega):
        with pytest.raises(ValueError):
            rho_min_one_mode(one_mode(0.1, 0.1, 0.0, 0.0), omega)


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
            m = one_mode(
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
            assert rho_two_mode(m, g, p) == one_mode_reference(
                m, 1.0, "traveling", u
            )

    def test_standing_exact_at_unit_frequency(self):
        rng = np.random.default_rng(102)
        g = ModeGeometry("standing", 1.0, 1.0)
        for m, x, t in self._points(rng):
            p = SpacetimePoint(x=x, t=t)
            assert rho_two_mode(m, g, p) == one_mode_reference(
                m, 1.0, "standing", (x[0], t)
            )

    def test_generic_frequency_within_ulp_budget(self):
        rng = np.random.default_rng(103)
        for m, x, t in self._points(rng):
            w = float(rng.uniform(0.2, 5.0))
            g = ModeGeometry("traveling", w, w)
            p = SpacetimePoint(x=x, t=t)
            u = 2.0 * (w * x[2] - w * t)
            a = rho_two_mode(m, g, p)
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
        m = barnett_radmore_moments(r=r, delta=0.0)
        g = ModeGeometry("traveling", 1.0, 1.0)
        p = SpacetimePoint(x=(0.0, 0.0, 0.0), t=0.0)
        s, c = math.sinh(r), math.cosh(r)
        assert rho_two_mode(m, g, p) == pytest.approx(
            2.0 * s * s - 2.0 * s * c, abs=1e-12
        )

    def test_geometric_factor_suppresses_cross_terms_when_antiparallel(self):
        # khat1 . khat2 = -1 kills the (1 + cos) cross weight entirely, so
        # only the single-mode channels remain.
        m = barnett_radmore_moments(r=0.9, delta=0.3)
        g = ModeGeometry("traveling", 1.0, 1.0, -1.0)
        rng = np.random.default_rng(17)
        base = m.n1 * 1.0 + m.n2 * 1.0  # R1 = R2 = 0 for this family
        for _ in range(20):
            p = SpacetimePoint(
                x=tuple(float(v) for v in rng.uniform(-2, 2, 3)),
                t=float(rng.uniform(-2, 2)),
            )
            assert rho_two_mode(m, g, p) == pytest.approx(base, abs=1e-12)

    def test_non_finite_value_raises_without_warning(self):
        # sqrt(w1 w2) overflows, so the cross channels are inf * cos = nan.
        m = barnett_radmore_moments(r=1.0, delta=0.0)
        g = ModeGeometry("traveling", 1e200, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="not finite"):
                rho_two_mode(m, g, SpacetimePoint(x=(0.0, 0.0, 0.0), t=0.0))


class TestNumericMinimizer:
    def test_rejects_bad_grid_and_window(self):
        g = ModeGeometry("traveling", 1.0, 1.0)
        with pytest.raises(ValueError, match="grid_n"):
            rho_min_two_mode_numeric(ZERO_MOMENTS, g, 8.0, 15)
        with pytest.raises(ValueError, match="window"):
            rho_min_two_mode_numeric(ZERO_MOMENTS, g, 0.0, 32)

    def test_rejects_non_finite_moments(self):
        bad = TwoModeMoments(
            math.nan, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
        )
        g = ModeGeometry("traveling", 1.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            rho_min_two_mode_numeric(bad, g, 8.0, 32)

    @pytest.mark.parametrize("w1,w2", sorted(BR_MIN_R1))
    def test_br_aligned_matches_closed_form(self, w1, w2):
        m = barnett_radmore_moments(r=1.0, delta=0.0)
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
        m = zhang_moments(r=0.007, theta=0.99 * math.pi)
        g = ModeGeometry("traveling", w1, w2, 0.0)
        _, val = rho_min_two_mode_numeric(m, g, 8.0, 64)
        closed = -(w1 + w2) * (m.R1 - m.n1)
        assert val == pytest.approx(closed, rel=1e-9)

    def test_aligned_commensurate_phases_cannot_both_bottom_out(self):
        # Parallel ratio-2 modes share one propagation coordinate, so the
        # two Zhang cosines are locked to arguments in ratio 2 and the
        # decoupled floor is strictly unattainable.
        m = zhang_moments(r=0.007, theta=0.99 * math.pi)
        g = ModeGeometry("traveling", 1.0, 2.0)
        _, val = rho_min_two_mode_numeric(m, g, 8.0, 64)
        assert val > -(3.0) * (m.R1 - m.n1) + 1e-3

    def test_min_point_tie_breaks_toward_origin(self):
        m = barnett_radmore_moments(r=1.0, delta=0.0)
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

    def test_polish_keeps_scan_minimum_past_overflowing_trials(self):
        # The scan minimum sits at the far corner t = s = window, so every
        # polish step outward overflows the simplex arithmetic and the
        # phases; those trials never displace the scan minimum.
        m = barnett_radmore_moments(r=1.0, delta=1.0)
        g = ModeGeometry("traveling", 1e-10, 2e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point, val = rho_min_two_mode_numeric(m, g, 1.5e308, 16)
            rho = np.stack(list(density_profile(m, g, 1.5e308, 16).slabs()))
        assert val == rho.min()
        assert point == SpacetimePoint(x=(0.0, 0.0, 1.5e308), t=1.5e308)


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
        m = zhang_moments(r=0.01, theta=0.95 * math.pi)
        g = PROFILE_GEOMETRIES[name]
        prof = density_profile(m, g, 8.0, 24)
        _, val = prof.min_found
        assert len(prof.samples) == 24 ** (3 if name in ("perpendicular", "skew") else 2)
        assert all(val <= rho for *_, rho in prof.samples.tolist())

    def test_sample_count_by_geometry(self):
        m = barnett_radmore_moments(r=0.3, delta=0.0)
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
        m = barnett_radmore_moments(r=0.7, delta=1.2)
        samples = density_profile(m, g, 8.0, 17).samples
        blocks = samples.view(np.uint64).reshape(17, -1, 5)
        assert (blocks[:, :, :3] == blocks[:1, :, :3]).all()
        assert (blocks[:, :, 3] == blocks[:, :1, 3]).all()

    @pytest.mark.parametrize("name", sorted(PROFILE_GEOMETRIES))
    def test_min_found_is_the_numeric_minimum(self, name):
        # One scan serves both the samples and the polished minimum.
        m = barnett_radmore_moments(r=0.7, delta=1.2)
        g = PROFILE_GEOMETRIES[name]
        assert density_profile(m, g, 8.0, 17).min_found == rho_min_two_mode_numeric(m, g, 8.0, 17)

    @pytest.mark.parametrize("name", sorted(PROFILE_GEOMETRIES))
    def test_samples_reproduce_point_evaluator(self, name):
        # The scan maps span coordinates to the exported Cartesian x first
        # and takes its phases from x, as the point evaluator does: every
        # sample and the minimum are rho_two_mode at their point, bit for bit.
        m = barnett_radmore_moments(r=0.7, delta=1.2)
        g = PROFILE_GEOMETRIES[name]
        prof = density_profile(m, g, 6.0, 16)
        for x1, x2, x3, t, rho in prof.samples.tolist():
            assert rho == rho_two_mode(m, g, SpacetimePoint(x=(x1, x2, x3), t=t))
        point, value = prof.min_found
        assert value == rho_two_mode(m, g, point)


# The slab scan against a dense meshgrid: skew, aligned and antiparallel
# traveling modes, standing modes, a one-mode state in mode 1, and
# the vacuum, where every value ties.
SCAN_CASES = {
    "skew": (barnett_radmore_moments(r=0.7, delta=1.2), ModeGeometry("traveling", 1.0, 2.0, 0.3)),
    "aligned": (barnett_radmore_moments(r=0.7, delta=1.2), ModeGeometry("traveling", 1.0, 2.0)),
    "antiparallel": (zhang_moments(r=0.01, theta=0.95 * math.pi), ModeGeometry("traveling", 1.0, 2.0, -1.0)),
    "standing": (barnett_radmore_moments(r=0.7, delta=1.2), ModeGeometry("standing", 1.0, 2.0)),
    "one-mode": (squeezed_vacuum_moments(0.8, 0.4), ModeGeometry("traveling", 1.5, 1.0, -0.5)),
    "vacuum": (ZERO_MOMENTS, ModeGeometry("traveling", 1.0, 2.0, 0.0)),
}


class TestSlabScan:
    @pytest.mark.parametrize("name", sorted(SCAN_CASES))
    def test_rho_matches_dense_meshgrid_bit_for_bit(self, name):
        m, g = SCAN_CASES[name]
        grid_n, window = 19, 7.0
        axis = np.linspace(0.0, window, grid_n)
        axes = 3 if g.kind == "traveling" and abs(g.cosangle) != 1.0 else 2
        dense = six_term_span(m, g, *np.meshgrid(*[axis] * axes, indexing="ij"))
        prof = density_profile(m, g, window, grid_n)
        rho = np.stack(list(prof.slabs()))
        assert rho.shape == (grid_n, grid_n ** (axes - 1))
        assert rho.tobytes() == dense.reshape(grid_n, -1).tobytes()
        assert prof.t.tobytes() == axis.tobytes()
        if name == "vacuum":  # every value ties: the first in (t, space) order is the origin
            assert prof.min_found == (SpacetimePoint(x=(0.0, 0.0, 0.0), t=0.0), 0.0)


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
            m = barnett_radmore_moments(r=0.8, delta=delta)
            _, val = rho_min_two_mode_numeric(m, ModeGeometry("traveling", w1, w2), 8.0, 64)
            assert val == pytest.approx(closed, rel=1e-6)

    @pytest.mark.parametrize("r,delta", [(1.418482, 1.064526), (0.559655, 5.194237), (0.942314, 1.098423)])
    def test_br_min_past_the_window_edge(self, r, delta):
        # These draws' best samples sit on the window's edge and the closed
        # depth lies just past it, at x3 = 8.0227, t = 8.0146 and
        # x3 = 8.0116: only the unbounded polish reaches it.
        m = barnett_radmore_moments(r=r, delta=delta)
        point, val = rho_min_two_mode_numeric(m, ModeGeometry("traveling", 1.0, 2.0), 8.0, 64)
        assert max(point.t, point.x[2]) > 8.0
        assert abs(val - rho_min_br_closed(r, 1.0, 2.0)) <= 1e-9

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
        m = barnett_radmore_moments(r=0.8, delta=1.1)
        g = ModeGeometry("traveling", 1.0, 2.0)
        s = math.sinh(0.8)
        assert spacetime_average(m, g) == pytest.approx(3.0 * s * s, rel=1e-14)

    def test_matches_equally_spaced_time_quadrature(self):
        # Over the common period 2 pi (ratio-2 frequencies) every oscillatory
        # channel is a pure harmonic of order < 64, which a 64-point
        # equally spaced Riemann sum annihilates exactly.
        m = barnett_radmore_moments(r=0.8, delta=1.1)
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
        m = zhang_moments(r=0.02, theta=0.9 * math.pi)
        assert spacetime_average(m, g) >= 0.0
        assert spacetime_average(ZERO_MOMENTS, g) == 0.0


# Every registry family with moments, at its defaults and at one seeded draw
# over its verification ranges, on aligned, antiparallel and skew traveling
# modes and on standing modes.
def _family_records():
    rng = np.random.default_rng(22)
    for name, family in REGISTRY.items():
        if family.layout is SCALAR:
            continue
        yield f"{name}-defaults", family.moments(family.record(family.defaults))
        if family.draws:
            drawn = {key: float(rng.uniform(0.0, upper)) for key, upper in family.draws.items()}
            yield f"{name}-drawn", family.moments(family.record(drawn))


FAMILY_RECORDS = dict(_family_records())
GEOMETRY_KINDS = {
    "aligned": ModeGeometry("traveling", 1.0, 2.0),
    "antiparallel": ModeGeometry("traveling", 1.5, 1.0, -1.0),
    "skew": ModeGeometry("traveling", 1.0, 2.0, 0.3),
    "standing": ModeGeometry("standing", 1.0, 1.5),
}


def six_term_traveling(m, g, k1x, k2x, t):
    """The traveling formula with every channel's term summed, empty or not."""
    w1, w2 = g.omega1, g.omega2
    geom = math.sqrt(w1 * w2) * (1.0 + g.cosangle)
    return (
        m.n1 * w1
        + m.n2 * w2
        + m.R1 * w1 * np.cos(2.0 * (k1x - w1 * t) + m.gamma1)
        + m.R2 * w2 * np.cos(2.0 * (k2x - w2 * t) + m.gamma2)
        + m.R3 * geom * np.cos((k2x - k1x) - (w2 - w1) * t + m.gamma3)
        + m.R4 * geom * np.cos((k2x + k1x) - (w2 + w1) * t + m.gamma4)
    )


def six_term_standing(m, g, x, t):
    """The standing formula with every channel's term summed, empty or not."""
    w1, w2 = g.omega1, g.omega2
    cross = 2.0 * math.sqrt(w1 * w2)
    return (
        m.n1 * w1
        + m.n2 * w2
        + m.R1 * w1 * np.cos(2.0 * w1 * x) * np.cos(2.0 * w1 * t - m.gamma1)
        + m.R2 * w2 * np.cos(2.0 * w2 * x) * np.cos(2.0 * w2 * t - m.gamma2)
        + m.R3 * cross * np.cos((w2 - w1) * x) * np.cos((w2 - w1) * t - m.gamma3)
        + m.R4 * cross * np.cos((w1 + w2) * x) * np.cos((w1 + w2) * t - m.gamma4)
    )


def six_term_at(m, g, x, t):
    """The six-term sum at Cartesian x = (x1, x2, x3).

    Standing waves read x1; traveling waves the phases k1.x = w1 x3 and
    k2.x = w2 (sqrt(1 - c^2) x1 + c x3).
    """
    x1, _, x3 = x
    if g.kind == "standing":
        return six_term_standing(m, g, x1, t)
    c = g.cosangle
    k2x = g.omega2 * (math.sqrt(max(0.0, 1.0 - c * c)) * x1 + c * x3)
    return six_term_traveling(m, g, g.omega1 * x3, k2x, t)


def six_term_span(m, g, t, s1, s2=0.0):
    return six_term_at(m, g, ed._span_x(g, s1, s2), t)


def six_term_point(m, g, p):
    return float(six_term_at(m, g, p.x, p.t))


def _points(rng, count):
    for _ in range(count):
        yield SpacetimePoint(x=tuple(float(v) for v in rng.uniform(-4.0, 4.0, 3)), t=float(rng.uniform(-4.0, 4.0)))


@pytest.mark.parametrize("kind", sorted(GEOMETRY_KINDS))
@pytest.mark.parametrize("record", sorted(FAMILY_RECORDS))
def test_skipped_channels_change_no_bit(record, kind, monkeypatch):
    # The scan, the point evaluator and the polish objective skip every
    # channel whose magnitude is exactly 0; each must still give the
    # six-term sum bit for bit.
    m, g = FAMILY_RECORDS[record], GEOMETRY_KINDS[kind]
    objectives, minimize = [], ed.minimize
    monkeypatch.setattr(ed, "minimize", lambda fun, x0, **kw: objectives.append(fun) or minimize(fun, x0, **kw))
    grid_n, window = 16, 6.0
    prof = density_profile(m, g, window, grid_n)
    axes = 3 if kind == "skew" else 2
    axis = np.linspace(0.0, window, grid_n)
    grid = np.meshgrid(*[axis] * axes, indexing="ij")
    assert np.stack(list(prof.slabs())).tobytes() == six_term_span(m, g, *grid).reshape(grid_n, -1).tobytes()

    (objective,) = objectives
    rng = np.random.default_rng(23)
    for p in _points(rng, 40):
        assert rho_two_mode(m, g, p) == six_term_point(m, g, p)
        q = rng.uniform(-4.0, 4.0, axes)
        assert objective(q) == float(six_term_span(m, g, *q))


def mode_sum_rho(m, g, p):
    """rho = sum_mu [Re(u^T M u) + u^dag N u] with u_j = d_mu f_j, from explicit mode functions.

    N_ij = <a_i^dag a_j> and M_ij = <a_i a_j> come from the record's stored
    complex channels.  Traveling modes are f_j = i e^{i(k_j.x - w_j t)} / sqrt(2 w_j)
    with k_j = w_j khat_j; standing modes are
    f_j = sqrt(2) sin(w_j z) e^{-i w_j t} / sqrt(2 w_j) with z = x[0].
    """
    w = np.array([g.omega1, g.omega2])
    N = np.array([[m.n1, m.adag_b], [np.conj(m.adag_b), m.n2]], dtype=complex)
    M = np.array([[m.a2, m.ab], [m.ab, m.b2]], dtype=complex)
    x = np.array(p.x)
    if g.kind == "traveling":
        c = g.cosangle
        k = w[:, None] * np.array([[0.0, 0.0, 1.0], [math.sqrt(max(0.0, 1.0 - c * c)), 0.0, c]])
        f = 1j * np.exp(1j * (k @ x - w * p.t)) / np.sqrt(2.0 * w)
        u = np.vstack([-1j * w * f, (1j * k * f[:, None]).T])  # rows d_t, d_x, d_y, d_z
    else:
        z = x[0]
        e = math.sqrt(2.0) * np.exp(-1j * w * p.t) / np.sqrt(2.0 * w)
        u = np.vstack([-1j * w * np.sin(w * z) * e, w * np.cos(w * z) * e])  # rows d_t, d_z
    return float(sum((v @ M @ v).real + (v.conj() @ N @ v).real for v in u))


@pytest.mark.parametrize("kind", sorted(GEOMETRY_KINDS))
@pytest.mark.parametrize("record", sorted(FAMILY_RECORDS))
def test_density_is_the_mode_sum(record, kind):
    # An independent route from moments to density: no R, gamma or trig
    # identity of the formulas.  Rounding enters through the phases, so the
    # bound scales with the terms' size and the largest phase.
    m, g = FAMILY_RECORDS[record], GEOMETRY_KINDS[kind]
    scale = m.n1 * g.omega1 + m.n2 * g.omega2 + abs(m.a2) * g.omega1 + abs(m.b2) * g.omega2
    scale += 2.0 * math.sqrt(g.omega1 * g.omega2) * (abs(m.adag_b) + abs(m.ab))
    for p in _points(np.random.default_rng(24), 40):
        phase = 2.0 * max(g.omega1, g.omega2) * (max(map(abs, p.x)) * math.sqrt(3.0) + abs(p.t))
        tol = np.finfo(float).eps * scale * (1.0 + phase)
        assert abs(rho_two_mode(m, g, p) - mode_sum_rho(m, g, p)) <= tol


def _oracle_record(name):
    """The first draw of `verify --seed 7` for ``name``: its closed-form and oracle records and tolerance.

    The oracle record is the moments of the number-basis state at the first
    cutoff whose own tail mass meets verification's target, and the
    tolerance is the one verification allows each moment of that draw.
    """
    family = REGISTRY[name]
    (row,) = verification._draw(family, np.random.default_rng([7, verification.FAMILIES.index(name)]), 1)
    record = family.record(dict(zip(family.draws, row.tolist())))
    state = fock_oracle.fitted(lambda cutoff: family.oracle(record, cutoff), verification._TAIL_TARGET, 4096)
    brute = fock_oracle.two_mode_moments(state)
    return family.moments(record), brute, max(1e-8, 10.0 * float(fock_oracle.tail_mass(state)))


@pytest.mark.parametrize("kind", ["aligned", "skew", "standing"])
@pytest.mark.parametrize("name", verification.FAMILIES)
def test_oracle_state_density_is_the_closed_form_density(name, kind):
    # From state to density with no closed-form step: the oracle's moments
    # through the mode sum and through rho_two_mode.  rho is linear in n1,
    # n2 and the four complex channels, with weights w1, w2, w1, w2 and up
    # to 2 sqrt(w1 w2) twice, so moments each within tol of the closed
    # forms' move it by at most tol times their sum, the density's size per
    # unit moment; rounding is bounded as in test_density_is_the_mode_sum.
    closed, brute, tol = _oracle_record(name)
    g = GEOMETRY_KINDS[kind]
    size = 2.0 * (g.omega1 + g.omega2) + 4.0 * math.sqrt(g.omega1 * g.omega2)
    scale = closed.n1 * g.omega1 + closed.n2 * g.omega2 + abs(closed.a2) * g.omega1 + abs(closed.b2) * g.omega2
    scale += 2.0 * math.sqrt(g.omega1 * g.omega2) * (abs(closed.adag_b) + abs(closed.ab))
    for p in _points(np.random.default_rng(25), 20):
        phase = 2.0 * max(g.omega1, g.omega2) * (max(map(abs, p.x)) * math.sqrt(3.0) + abs(p.t))
        bound = tol * size + np.finfo(float).eps * scale * (1.0 + phase)
        expected = rho_two_mode(closed, g, p)
        assert abs(mode_sum_rho(brute, g, p) - expected) <= bound
        assert abs(rho_two_mode(brute, g, p) - expected) <= bound


def torus_rho(m, g, th1, th2):
    """The module docstring's traveling density in the phases th_j = k_j.x - w_j t."""
    w1, w2 = g.omega1, g.omega2
    geom = math.sqrt(w1 * w2) * (1.0 + g.cosangle)
    return (
        m.n1 * w1
        + m.n2 * w2
        + m.R1 * w1 * np.cos(2.0 * th1 + m.gamma1)
        + m.R2 * w2 * np.cos(2.0 * th2 + m.gamma2)
        + geom * (m.R3 * np.cos(th2 - th1 + m.gamma3) + m.R4 * np.cos(th2 + th1 + m.gamma4))
    )


def torus_min(m, g):
    """Minimum of ``torus_rho`` over the 2-torus: a 512^2 grid, refined by Nelder-Mead."""
    axis = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    grid = torus_rho(m, g, *np.meshgrid(axis, axis, indexing="ij"))
    i, j = np.unravel_index(np.argmin(grid), grid.shape)
    res = scipy.optimize.minimize(
        lambda q: float(torus_rho(m, g, *q)),
        [axis[i], axis[j]],
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 4000},
    )
    return float(res.fun)


TORUS_GEOMETRIES = {
    "1:2:0.3": ModeGeometry("traveling", 1.0, 2.0, 0.3),
    "1:1:0": ModeGeometry("traveling", 1.0, 1.0, 0.0),
    "1.5:1:-0.5": ModeGeometry("traveling", 1.5, 1.0, -0.5),
}


@pytest.mark.parametrize("geometry", sorted(TORUS_GEOMETRIES))
@pytest.mark.parametrize("record", sorted(r for r in FAMILY_RECORDS if r.endswith("-defaults")))
def test_numeric_minimum_is_the_torus_minimum(record, geometry):
    # Skew traveling modes see (t, x) only through th1 and th2, and every
    # pair of phases is reached, so the density's infimum over spacetime is
    # its minimum over the 2-torus.  The numeric minimum is a density value:
    # it may undercut that minimum only by rounding, bounded as in
    # test_density_is_the_mode_sum, and it should find it.
    m, g = FAMILY_RECORDS[record], TORUS_GEOMETRIES[geometry]
    scale = m.n1 * g.omega1 + m.n2 * g.omega2 + abs(m.a2) * g.omega1 + abs(m.b2) * g.omega2
    scale += 2.0 * math.sqrt(g.omega1 * g.omega2) * (abs(m.adag_b) + abs(m.ab))
    p, val = rho_min_two_mode_numeric(m, g, 8.0, 32)
    phase = 2.0 * max(g.omega1, g.omega2) * (max(map(abs, p.x)) * math.sqrt(3.0) + abs(p.t))
    expected = torus_min(m, g)
    assert val >= expected - np.finfo(float).eps * scale * (1.0 + phase)
    assert abs(val - expected) <= 1e-9 * scale
