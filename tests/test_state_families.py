"""Closed-form moment tests for every state family.

Where a closed form has a distinctive exact consequence (a flat direction, an
exact zero, a hyperbolic identity) the test pins it at near machine precision;
where the value is simply "what the algebra gives", the expected number was
cross-checked against the number-basis oracle first and is frozen here to
nine-plus digits.
"""

import cmath
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy.special import lambertw

import subvacuum.state_families as sf

TAU = 2.0 * math.pi

# Location of the flat ridge of F = R - n for even coherent superpositions:
# N(|c + a> + |c - a>) has F independent of the real displacement c, and the
# optimal half-separation a* gives F = W(1/e) (Lambert W).
A_STAR = 0.7995200256282121
F_RIDGE = float(lambertw(math.exp(-1.0)).real)  # 0.2784645427610738


def one_mode_F(m: sf.TwoModeMoments) -> float:
    return m.R1 - m.n1


# ---------------------------------------------------------------------------
# wrap_angle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw,expected",
    [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (3.0 * math.pi, math.pi),
        (TAU + 0.25, 0.25),
        (-0.25, -0.25),
    ],
)
def test_wrap_angle_lands_in_half_open_interval(raw, expected):
    w = sf.wrap_angle(raw)
    assert -math.pi < w <= math.pi
    assert w == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Squeezed vacuum
# ---------------------------------------------------------------------------


class TestSqueezedVacuum:
    def test_hyperbolic_moments(self):
        m = sf.squeezed_vacuum_moments(1.0, 0.0)
        assert m.n1 == pytest.approx(math.sinh(1.0) ** 2, abs=1e-14)
        assert m.R1 == pytest.approx(math.sinh(1.0) * math.cosh(1.0), abs=1e-14)

    def test_pair_phase_opposes_squeeze_axis(self):
        # <a^2> = -e^{i delta} sinh r cosh r, so gamma = delta + pi (wrapped).
        m = sf.squeezed_vacuum_moments(0.8, 0.4)
        assert m.gamma1 == pytest.approx(sf.wrap_angle(0.4 + math.pi), abs=1e-12)
        m5 = sf.squeezed_vacuum_moments(0.8, 5.0)
        assert m5.gamma1 == pytest.approx(5.0 + math.pi - TAU, abs=1e-12)

    def test_f_approaches_half(self):
        # R - n climbs to 1/2.  Beyond r ~ 8 the moments are ~1e7 and their
        # float64 difference is quantized in ~1e-8 steps, so strict
        # monotonicity of the computed sequence only holds below that.
        rs = np.linspace(0.0, 8.0, 161)
        f = [one_mode_F(sf.squeezed_vacuum_moments(r, 0.0)) for r in rs]
        assert all(b > a for a, b in zip(f, f[1:]))
        assert f[-1] < 0.5
        assert one_mode_F(sf.squeezed_vacuum_moments(5.0, 0.0)) > 0.49

    def test_f_cancellation_stays_below_ulp_budget(self):
        # On the full [0, 10] range the difference R - n deviates from the
        # exact (1 - e^{-2r})/2 by at most one ulp of the moments (~3e-8 at
        # r = 10); measured worst case 1.7e-8.
        rs = np.linspace(0.0, 10.0, 401)
        worst = max(
            abs(one_mode_F(sf.squeezed_vacuum_moments(float(r), 0.0)) - 0.5 * (1 - math.exp(-2 * r)))
            for r in rs
        )
        assert worst < 3e-8

    def test_exact_closed_form_for_f(self):
        # R - n = (1 - e^{-2r}) / 2 exactly.
        for r in (0.3, 1.7, 4.2):
            got = one_mode_F(sf.squeezed_vacuum_moments(r, 2.2))
            assert got == pytest.approx(0.5 * (1.0 - math.exp(-2.0 * r)), abs=1e-12)

    def test_coherent_pair_excess_is_the_plain_difference(self):
        m = sf.coherent_superposition_moments(A_STAR, -A_STAR, 1.0)
        assert m.excess == m.R1 - m.n1
        assert sf.REGISTRY["coherent-pair"].layout.cells(m)[2] == one_mode_F(m)

    def test_negative_squeeze_rejected(self):
        with pytest.raises(ValueError):
            sf.squeezed_vacuum_moments(-1.0, 0.0)


# ---------------------------------------------------------------------------
# Coherent superpositions N(|alpha> + eta |beta>)
# ---------------------------------------------------------------------------


class TestCoherentPairMoments:
    def test_eta_zero_reduces_to_single_coherent(self):
        alpha = 1.1 * np.exp(0.7j)
        m = sf.coherent_superposition_moments(alpha, 2.0, 0.0)
        assert m.n1 == pytest.approx(abs(alpha) ** 2, abs=1e-12)
        assert m.R1 == pytest.approx(abs(alpha) ** 2, abs=1e-12)
        assert m.gamma1 == pytest.approx(sf.wrap_angle(2 * np.angle(alpha)), abs=1e-12)

    def test_identical_branches_recover_coherent_state(self):
        m = sf.coherent_superposition_moments(0.9, 0.9, 1.0)
        assert one_mode_F(m) == pytest.approx(0.0, abs=1e-12)
        assert m.n1 == pytest.approx(0.81, abs=1e-12)

    def test_branch_swap_symmetry(self):
        # N(|a> + eta |b>) and N(|b> + (1/eta) |a>) are the same ray.
        a, b, eta = 0.6 + 0.2j, 1.4 * np.exp(2.1j), 0.8 * np.exp(-0.5j)
        m1 = sf.coherent_superposition_moments(a, b, eta)
        m2 = sf.coherent_superposition_moments(b, a, 1.0 / eta)
        assert m1.n1 == pytest.approx(m2.n1, abs=1e-10)
        assert m1.R1 == pytest.approx(m2.R1, abs=1e-10)
        assert m1.gamma1 == pytest.approx(m2.gamma1, abs=1e-10)

    def test_mode_phase_rotation_shifts_gamma_only(self):
        a, b, eta = 0.7, 1.2 * np.exp(0.4j), 1.3 * np.exp(1.9j)
        phi = 0.81
        m0 = sf.coherent_superposition_moments(a, b, eta)
        m1 = sf.coherent_superposition_moments(a * np.exp(1j * phi), b * np.exp(1j * phi), eta)
        assert m1.n1 == pytest.approx(m0.n1, abs=1e-12)
        assert m1.R1 == pytest.approx(m0.R1, abs=1e-12)
        assert sf.wrap_angle(m1.gamma1 - m0.gamma1 - 2 * phi) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_destructive_normalization_raises(self):
        with pytest.raises(sf.DegenerateStateError):
            sf.regular(sf.coherent_superposition_moments(0.5, 0.5, -1.0))

    def test_flat_ridge_of_even_superpositions(self):
        """Real displacement of the even two-branch state never changes F.

        The occupation grows by exactly c^2 while R grows in lockstep, so the
        entire segment is one maximum of F at the Lambert-W level.
        """
        for c in (0.0, -0.3, 0.5, -A_STAR, 1.1):
            m = sf.coherent_superposition_moments(c + A_STAR, c - A_STAR, 1.0)
            assert one_mode_F(m) == pytest.approx(F_RIDGE, abs=1e-12)

    def test_ridge_endpoint_occupations(self):
        centered = sf.coherent_superposition_moments(A_STAR, -A_STAR, 1.0)
        shifted = sf.coherent_superposition_moments(0.0, 2 * A_STAR, 1.0)
        assert centered.n1 == pytest.approx(0.3607677286194632, abs=1e-12)
        assert shifted.n1 == pytest.approx(1.0, abs=1e-12)
        assert one_mode_F(shifted) == pytest.approx(F_RIDGE, abs=1e-12)


# ---------------------------------------------------------------------------
# Superposed opposite squeezes N(|r> + eta |-r>)
# ---------------------------------------------------------------------------


class TestSuperposedSqueezed:
    def test_eta_zero_reduction(self):
        m = sf.superposed_squeezed_moments(1.3, 0.0)
        ref = sf.squeezed_vacuum_moments(1.3, 0.0)
        assert m.n1 == pytest.approx(ref.n1, abs=1e-12)
        assert m.R1 == pytest.approx(ref.R1, abs=1e-12)

    def test_equal_weights_kill_the_pair_moment(self):
        # At eta = -1 the surviving pair contribution is purely the
        # imaginary cross term, which vanishes for real eta.
        m = sf.superposed_squeezed_moments(1.0, -1.0)
        assert m.R1 == 0.0
        assert m.n1 == pytest.approx(3.2415980313088735, abs=1e-9)

    def test_occupation_exceeds_single_branch_at_eta_minus_one(self):
        for r in (0.5, 1.0, 2.0):
            m = sf.superposed_squeezed_moments(r, -1.0)
            assert m.n1 > math.sinh(r) ** 2

    def test_degenerate_at_zero_squeeze(self):
        with pytest.raises(sf.DegenerateStateError):
            sf.regular(sf.superposed_squeezed_moments(0.0, -1.0))


# ---------------------------------------------------------------------------
# Squeezed vacuum plus coherent / plus vacuum
# ---------------------------------------------------------------------------


def vacuum_plus_squeezed(r, eta) -> sf.TwoModeMoments:
    """N(|r> + eta |0>): the coherent-squeezed closed form at alpha = 0, delta = 0."""
    return sf.coherent_plus_squeezed_moments(r, 0.0, 0.0, eta)


def mp_squeezed_plus_coherent(r, delta, alpha, eta):
    """(n, |<a^2>|, F) of N(|r, delta> + eta |alpha>) at the working mpmath precision, as written."""
    r, delta, alpha, h = mpmath.mpf(r), mpmath.mpf(delta), mpmath.mpc(alpha), mpmath.mpc(eta)
    s, c, t = mpmath.sinh(r), mpmath.cosh(r), mpmath.tanh(r)
    rotor = mpmath.expj(delta)
    ov = mpmath.exp(-abs(alpha) ** 2 / 2 - alpha**2 * t / (2 * rotor)) / mpmath.sqrt(c)
    denom = 1 + abs(h) ** 2 + 2 * (h * ov).real
    n = (s * s + abs(h * alpha) ** 2 - 2 * t * (h * alpha**2 * ov / rotor).real) / denom
    pair = (
        -s * c * rotor
        + abs(h) ** 2 * alpha**2
        + h * alpha**2 * ov
        + mpmath.conj(h) * mpmath.conj(ov) * (mpmath.conj(alpha) ** 2 * rotor * t - 1) * rotor * t
    )
    return n, abs(pair) / denom, abs(pair) / denom - n


class TestCoherentPlusSqueezed:
    def test_eta_zero_reduction(self):
        m = sf.coherent_plus_squeezed_moments(0.9, 1.2, 0.5, 0.0)
        ref = sf.squeezed_vacuum_moments(0.9, 1.2)
        assert m.n1 == pytest.approx(ref.n1, abs=1e-12)
        assert m.R1 == pytest.approx(ref.R1, abs=1e-12)
        assert m.gamma1 == pytest.approx(ref.gamma1, abs=1e-12)

    def test_sign_alternation_along_r(self):
        # alpha = 0.6, eta = 1: F starts positive, dips negative, recovers.
        f = {
            r: one_mode_F(sf.coherent_plus_squeezed_moments(r, 0.0, 0.6, 1.0))
            for r in (0.1, 0.4, 1.0)
        }
        assert f[0.1] == pytest.approx(0.04509562726489158, abs=1e-11)
        assert f[0.4] == pytest.approx(-0.07526152877361264, abs=1e-11)
        assert f[1.0] == pytest.approx(0.04628319116999635, abs=1e-11)

    def test_vacuum_branch_value_at_deep_squeeze(self):
        m = sf.coherent_plus_squeezed_moments(5.0, 0.0, 0.0, 1.0)
        assert one_mode_F(m) == pytest.approx(0.27598744783972506, abs=1e-11)

    @pytest.mark.parametrize("eta", [-1.0, -1.0 + 1e-3j, -1.0 - 1e-4j, -1.0 + 3e-5j])
    @pytest.mark.parametrize(
        "alpha,delta", [(cmath.rect(1e-2, 0.7), 2.5), (cmath.rect(3e-3, 2.1), 0.4), (cmath.rect(1e-4, -1.3), 1.2)]
    )
    @pytest.mark.parametrize("r", [1e-5, 1.5e-4, 1e-3, 1e-2, 0.1])
    def test_moments_match_60_digit_reference_near_the_singular_corner(self, r, alpha, delta, eta):
        # The vacuum-plus-squeezed corner test below, with a small coherent
        # amplitude and a squeeze phase: the branches still nearly coincide.
        # Over this grid n, |<a^2>| and F (relative to max(|F|, n)) measured
        # within 7.3e-16 of the 60-digit values.  Sums written without expm1
        # lost up to 4e-8; F from the expm1(-2r) form wherever |<a^2>| >= n/2
        # lost up to 2.7e-13.
        with mpmath.workdps(60):
            n, pair_mag, excess = mp_squeezed_plus_coherent(r, delta, alpha, eta)
        m = sf.coherent_plus_squeezed_moments(r, delta, alpha, eta)
        assert not m.degenerate
        for got, ref, scale in ((m.n1, n, n), (m.R1, pair_mag, pair_mag), (m.excess, excess, max(abs(excess), n))):
            assert abs(got - ref) <= 1e-14 * scale


class TestVacuumPlusSqueezed:
    def test_eta_zero_reduction(self):
        m = vacuum_plus_squeezed(1.4, 0.0)
        ref = sf.squeezed_vacuum_moments(1.4, 0.0)
        assert m.n1 == pytest.approx(ref.n1, abs=1e-12)
        assert m.R1 == pytest.approx(ref.R1, abs=1e-12)

    def test_f_profile_at_eta_minus_one(self):
        m2 = vacuum_plus_squeezed(2.0, -1.0)
        m6 = vacuum_plus_squeezed(6.0, -1.0)
        assert one_mode_F(m2) == pytest.approx(-0.006370229324739185, abs=1e-11)
        assert one_mode_F(m6) == pytest.approx(0.23106323914180393, abs=1e-11)

    def test_degenerate_limit_is_two_photon_state(self):
        # As r -> 0 with eta = -1 the normalized state tends to |2>, whose
        # occupation is 2 with a vanishing pair moment; at r = 0 itself the
        # state is the zero vector, flagged degenerate like every family's.
        m = vacuum_plus_squeezed(0.0, -1.0)
        assert m.degenerate and all(math.isnan(v) for v in (m.n1, m.R1, m.gamma1, m.excess))
        near = vacuum_plus_squeezed(1e-6, -1.0)
        with mpmath.workdps(60):
            n, pair_mag, excess = mp_squeezed_plus_coherent(1e-6, 0.0, 0.0, -1.0)
        assert not near.degenerate
        assert abs(near.n1 - n) <= 1e-12 * n and float(n) == pytest.approx(2.0, abs=1e-11)
        assert abs(near.R1 - pair_mag) <= 1e-12 * pair_mag
        assert abs(near.excess - excess) <= 1e-12 * abs(excess)

    @pytest.mark.parametrize("eta", [-1.0, -1.0 + 1e-3j, -1.0 + 3e-5j])
    @pytest.mark.parametrize("r", [1e-5, 1.5e-4, 1e-3, 1e-2, 0.1])
    def test_moments_match_60_digit_reference_near_the_singular_corner(self, r, eta):
        # Near eta = -1, r = 0 the normalization 1 + |eta|^2 + 2 Re eta
        # sqrt(sech r) and the pair factor 1 + conj(eta) sech^{5/2} r both
        # cancel to O(r^2); evaluated as written they lose up to 8 digits.
        # F = R - n is held to 1e-12 of max(|F|, n): at r = 1e-3,
        # eta = -1 + 1e-3 i it is -9.0e-8 against n = 0.67, next to the zero
        # of F near |1 + eta| = r, and keeps 9 relative digits there.  At
        # r = 1e-5, eta = -1 + 3e-5 i, where |<a^2>| > n/2 but both are far
        # below sinh r cosh r, the expm1(-2r) form would lose 8e-12 of F.
        with mpmath.workdps(60):
            s, c = mpmath.sinh(r), mpmath.cosh(r)
            h = mpmath.mpc(eta)
            denom = 1 + abs(h) ** 2 + 2 * h.real / mpmath.sqrt(c)
            n = s * s / denom
            pair_mag = abs(s * c * (1 + mpmath.conj(h) * c ** mpmath.mpf(-2.5))) / denom
            excess = pair_mag - n
        m = vacuum_plus_squeezed(r, eta)
        for got, ref, scale in ((m.n1, n, n), (m.R1, pair_mag, pair_mag), (m.excess, excess, max(abs(excess), n))):
            assert abs(got - ref) <= 1e-12 * scale


def mp_vacuum_plus_squeezed_F(r, eta):
    """|<a^2>| - n of N(|r> + eta |0>) at the working mpmath precision."""
    r, eta = mpmath.mpf(r), mpmath.mpc(eta)
    s, c = mpmath.sinh(r), mpmath.cosh(r)
    denom = 1 + abs(eta) ** 2 + 2 * eta.real / mpmath.sqrt(c)
    pair = -s * c * (1 + mpmath.conj(eta) * c ** mpmath.mpf(-2.5))
    return (abs(pair) - s * s) / denom


def mp_superposed_squeezed(r, eta):
    """(n, |<a^2>|, |<a^2>| - n) of N(|r> + eta |-r>) at the working mpmath precision."""
    r, eta = mpmath.mpf(r), mpmath.mpc(eta)
    s, c, c2 = mpmath.sinh(r), mpmath.cosh(r), mpmath.cosh(2 * r)
    denom = 1 + abs(eta) ** 2 + 2 * eta.real / mpmath.sqrt(c2)
    n = s * s * (1 + abs(eta) ** 2) - 2 * eta.real * s * s / c2 ** mpmath.mpf(1.5)
    pair = (abs(eta) ** 2 - 1) * s * c + 2j * eta.imag * s * c / c2 ** mpmath.mpf(1.5)
    return n / denom, abs(pair) / denom, (abs(pair) - n) / denom


def mp_coherent_plus_squeezed_F(r, delta, alpha, eta):
    """|<a^2>| - n of N(|r, delta> + eta |alpha>) at the working mpmath precision."""
    r, delta, alpha, eta = mpmath.mpf(r), mpmath.mpf(delta), mpmath.mpc(alpha), mpmath.mpc(eta)
    s, c, t = mpmath.sinh(r), mpmath.cosh(r), mpmath.tanh(r)
    rotor = mpmath.expj(delta)
    weight = mpmath.exp(-abs(alpha) ** 2 / 2) / mpmath.sqrt(c)
    twist = mpmath.exp(-alpha**2 * t / (2 * rotor))
    denom = 1 + abs(eta) ** 2 + 2 * (eta * weight * twist).real
    n = s * s + abs(eta * alpha) ** 2 - 2 * weight * t * (eta * alpha**2 * twist / rotor).real
    pair = (
        -s * c * rotor
        + abs(eta) ** 2 * alpha**2
        + eta * alpha**2 * weight * twist
        + mpmath.conj(eta) * weight * (mpmath.conj(alpha) ** 2 * rotor * t - 1) * rotor * t * mpmath.conj(twist)
    )
    return (abs(pair) - n) / denom


class TestSqueezedSuperpositionExcess:
    """Cancellation-free F of vacuum-, coherent- and squeezed-plus-squeezed states.

    Against 50-digit references in :func:`test_excess_matches_50_digit_reference`;
    here ``excess`` is tied to the plain difference where nothing cancels.
    """

    @pytest.mark.parametrize("r", [0.0, 0.3, 2.0])
    def test_excess_is_r_minus_n_where_nothing_cancels(self, r):
        vs = vacuum_plus_squeezed(r, 0.5 - 0.2j)
        cs = sf.coherent_plus_squeezed_moments(r, 0.7, 0.6 + 0.3j, 1.0)
        ss = sf.superposed_squeezed_moments(r, 0.5 - 0.2j)
        for m in (vs, cs, ss):
            assert m.excess == pytest.approx(m.R1 - m.n1, abs=1e-14)

    def test_degenerate_corner_is_flagged_like_every_family(self):
        # r = 0, eta = -1 is the zero vector: flagged, every moment NaN, and
        # the sweep and search treat it as every other degenerate row.
        m = vacuum_plus_squeezed(0.0, -1.0)
        assert m.degenerate and math.isnan(m.excess) and math.isnan(m.n1)



def mp_coherent_pair_F(alpha, beta, eta):
    """|<a^2>| - n of N(|alpha> + eta |beta>) at the working mpmath precision."""
    a, b, h = mpmath.mpc(alpha), mpmath.mpc(beta), mpmath.mpc(eta)
    ov = mpmath.exp(-(abs(a) ** 2 + abs(b) ** 2) / 2 + mpmath.conj(a) * b)
    denom = 1 + abs(h) ** 2 + 2 * (h * ov).real
    n = abs(a) ** 2 + abs(h * b) ** 2 + 2 * (h * mpmath.conj(a) * b * ov).real
    pair = a**2 + abs(h) ** 2 * b**2 + h * b**2 * ov + mpmath.conj(h) * a**2 * mpmath.conj(ov)
    return (abs(pair) - n) / denom


def squeezed_vacuum_excesses(rng):
    # r spans the float64 cancellation of pair_mag - n (eight digits lost by
    # r = 9); the exact excess is (1 - e^{-2r}) / 2.
    for r in (1e-6, 0.01, 1.0, 5.0, 8.2, 9.0, 9.5, 10.0, 20.0):
        yield sf.squeezed_vacuum_moments(r, 0.4).excess, (1 - mpmath.exp(-2 * mpmath.mpf(r))) / 2


def vacuum_squeezed_excesses(rng):
    for _ in range(200):
        r = float(rng.uniform(0.5, 20.0))
        eta = complex(rng.uniform(0.0, 2.0) * np.exp(1j * rng.uniform(0.0, TAU)))
        yield vacuum_plus_squeezed(r, eta).excess, mp_vacuum_plus_squeezed_F(r, eta)


def coherent_squeezed_excesses(rng):
    for _ in range(200):
        r = float(rng.uniform(0.5, 20.0))
        eta = complex(rng.uniform(0.0, 2.0) * np.exp(1j * rng.uniform(0.0, TAU)))
        alpha = complex(rng.uniform(0.0, 2.0) * np.exp(1j * rng.uniform(0.0, TAU)))
        delta = float(rng.uniform(0.0, TAU))
        m = sf.coherent_plus_squeezed_moments(r, delta, alpha, eta)
        yield m.excess, mp_coherent_plus_squeezed_F(r, delta, alpha, eta)


def superposed_squeezed_excesses(rng):
    # |eta| is log-uniform over [1e-9, 4]: small weights leave F near the
    # squeezed vacuum's 1/2, where pair_mag - n cancels.
    for _ in range(200):
        r = float(rng.uniform(0.5, 20.0))
        eta = complex(10.0 ** rng.uniform(-9.0, math.log10(4.0)) * np.exp(1j * rng.uniform(0.0, TAU)))
        yield sf.superposed_squeezed_moments(r, eta).excess, mp_superposed_squeezed(r, eta)[2]


def coherent_pair_excesses(name):
    """Excesses at the points the search evaluates: 400 uniform draws over the box."""
    view = sf.SEARCHES[name][1]
    lo, hi = np.array(view.lower), np.array(view.upper)

    def excesses(rng):
        for _ in range(400):
            p = lo + (hi - lo) * rng.uniform(size=view.dim)
            if view.dim == 5:  # the first amplitude's phase pinned to zero
                alpha, beta, eta = p[0], p[1] * np.exp(1j * p[3]), p[2] * np.exp(1j * p[4])
            else:
                alpha, beta, eta = (p[k] * np.exp(1j * p[k + 3]) for k in range(3))
            yield view.moments_of(p).excess, mp_coherent_pair_F(alpha, beta, eta)

    return excesses


def drawn_excesses(name, reference):
    """Excesses over 400 of the family's verification draws, against ``reference``'s 50-digit F."""
    family = sf.REGISTRY[name]

    def excesses(rng):
        for _ in range(400):
            p = dict(zip(family.draws, rng.uniform(0.0, list(family.draws.values()))))
            yield family.moments(family.record(p)).excess, reference(p)[2]

    return excesses


def _spacing_of_half(ref: float) -> float:
    return float(np.spacing(0.5))


def _spacing_of_magnitude(ref: float) -> float:
    return float(np.spacing(max(abs(ref), 0.5)))


#: Family -> (excesses(rng) yielding (excess, 50-digit F) pairs, error unit
#: at the reference F, bound in units).
#:
#: - squeezed-vacuum: within two spacings of F itself, where pair_mag - n has
#:   lost eight digits.
#: - vacuum- and coherent-squeezed: n and |<a^2>| grow like e^{2r}/4, so
#:   pair_mag - n is off by O(1) at r = 20.  F <= 1/2, so errors are counted
#:   in spacings of 1/2 (one ulp at the top of F's range); 1500 draws over
#:   three seeds measured at most 5 (vacuum) and 16 (coherent).
#: - superposed-squeezed: two squeezed branches can make F large and
#:   negative, so errors are counted in spacings of max(|F|, 1/2); 1500 draws
#:   over three seeds measured at most 18.
#: - coherent-pair: the excess is the plain difference pair_mag - n; over
#:   the search boxes n and |<a^2>| stay below ~11, so it cannot lose more
#:   than a few spacings of 11 to cancellation.  20,000 draws per box (five
#:   seeds) measured at most 92 spacings of max(|F|, 1/2) on the pinned box
#:   and 834 on the free box.  The 834 sits at a near-cancelling
#:   normalization (denominator 0.03), where n itself is off by 1135
#:   spacings: the error comes from the moments, not from the difference,
#:   and no closed form of F would remove it.
#: - zhang and entangled-coherent, mode 1 of two, over their verification
#:   draws: 4,000 draws (seeds 2024-2033) measured at most 6 (zhang, whose F
#:   is the plain difference R1 - n1) and 2.5 spacings of max(|F|, 1/2).
ONE_MODE_EXCESS = {
    "squeezed-vacuum": (squeezed_vacuum_excesses, np.spacing, 2),
    "vacuum-squeezed": (vacuum_squeezed_excesses, _spacing_of_half, 32),
    "coherent-squeezed": (coherent_squeezed_excesses, _spacing_of_half, 32),
    "superposed-squeezed": (superposed_squeezed_excesses, _spacing_of_magnitude, 32),
    "coherent-pair": (coherent_pair_excesses("coherent-pair"), _spacing_of_magnitude, 128),
    "coherent-pair-free": (coherent_pair_excesses("coherent-pair-free"), _spacing_of_magnitude, 1024),
    "zhang": (drawn_excesses("zhang", lambda p: mp_zhang(p["r"], p["theta"])), _spacing_of_magnitude, 16),
    "entangled-coherent": (
        drawn_excesses("entangled-coherent", lambda p: mp_entangled_coherent(p["sigma"], p["theta"])),
        _spacing_of_magnitude,
        4,
    ),
}


@pytest.mark.parametrize("family", ONE_MODE_EXCESS)
def test_excess_matches_50_digit_reference(family):
    excesses, unit, bound = ONE_MODE_EXCESS[family]
    with mpmath.workdps(50):
        pairs = [(got, float(ref)) for got, ref in excesses(np.random.default_rng(2024))]
    worst = max(abs(got - ref) / unit(ref) for got, ref in pairs)
    assert worst <= bound


# ---------------------------------------------------------------------------
# Beside a degenerate superposition
# ---------------------------------------------------------------------------


def mp_zhang(r, theta):
    """(n1, |<a^2>|, |<a^2>| - n1) of the phase-superposed pair at the working mpmath precision."""
    r, theta = mpmath.mpf(r), mpmath.mpf(theta)
    s, c2 = mpmath.sinh(r), mpmath.cosh(2 * r)
    denom = 2 * (1 + mpmath.cos(theta) / c2)
    n = 2 * s * s * (1 - mpmath.cos(theta) / c2**2) / denom
    pair = abs(mpmath.sin(theta)) * mpmath.sinh(2 * r) / c2**2 / denom
    return n, pair, pair - n


def mp_entangled_coherent(sigma, theta):
    """(n1, |<a^2>| = sigma^2, sigma^2 - n1) of the entangled coherent state at the working mpmath precision."""
    sigma, theta = mpmath.mpf(sigma), mpmath.mpf(theta)
    odd = mpmath.cos(theta) * mpmath.exp(-4 * sigma**2)
    n = sigma**2 * (1 - odd) / (1 + odd)
    return n, sigma**2, sigma**2 - n


#: Shell -> (closed-form moments and 50-digit (n1, R1, F) at a distance k
#: from the cancelling weight or phase and a squeeze r or amplitude sigma x).
#: At theta = 0 the branches add, but their overlap still tends to 1.
DEGENERATE_SHELLS = {
    "superposed-squeezed-eta=-1+ik": (
        lambda k, x: sf.superposed_squeezed_moments(x, -1.0 + 1j * k),
        lambda k, x: mp_superposed_squeezed(x, mpmath.mpc(-1, k)),
    ),
    "zhang-theta=pi-k": (
        lambda k, x: sf.zhang_moments(x, math.pi - k),
        lambda k, x: mp_zhang(x, math.pi - k),
    ),
    "zhang-theta=0": (lambda k, x: sf.zhang_moments(x, 0.0), lambda k, x: mp_zhang(x, 0.0)),
    "entangled-coherent-theta=pi-k": (
        lambda k, x: sf.entangled_coherent_moments(x, math.pi - k, 0.0, 0.0),
        lambda k, x: mp_entangled_coherent(x, math.pi - k),
    ),
    "entangled-coherent-theta=0": (
        lambda k, x: sf.entangled_coherent_moments(x, 0.0, 0.0, 0.0),
        lambda k, x: mp_entangled_coherent(x, 0.0),
    ),
}


@pytest.mark.parametrize("shell", DEGENERATE_SHELLS)
def test_moments_beside_a_degenerate_superposition_match_50_digits(shell):
    # Denominators down to ~1e-12.  Relative error measured at most 9.2e-16
    # (superposed-squeezed F); the hand-written denominators lost up to 5.9e-5.
    closed, reference = DEGENERATE_SHELLS[shell]
    k, x = (grid.ravel() for grid in np.meshgrid(np.logspace(-6, -3, 7), np.logspace(-6, -2, 9)))
    m = closed(k, x)
    with mpmath.workdps(50):
        refs = [reference(*point) for point in zip(k.tolist(), x.tolist())]
    for column, field in enumerate(("n1", "R1", "excess")):
        for got, ref in zip(getattr(m, field), (float(r[column]) for r in refs)):
            assert abs(got - ref) <= 2e-15 * abs(ref), (field, got, ref)


# ---------------------------------------------------------------------------
# Two-mode families
# ---------------------------------------------------------------------------


class TestBarnettRadmore:
    def test_channel_structure(self):
        m = sf.barnett_radmore_moments(1.0, 0.0)
        assert m.n1 == pytest.approx(math.sinh(1.0) ** 2, abs=1e-14)
        assert m.n2 == m.n1
        assert m.R1 == m.R2 == m.R3 == 0.0
        assert m.R4 == pytest.approx(math.sinh(1.0) * math.cosh(1.0), abs=1e-14)
        assert m.gamma4 == pytest.approx(math.pi, abs=1e-12)

    def test_pair_phase_tracks_squeeze_phase(self):
        m = sf.barnett_radmore_moments(0.7, 5.0)
        assert m.gamma4 == pytest.approx(sf.wrap_angle(5.0 + math.pi), abs=1e-12)


class TestZhang:
    def test_cross_term_free_angle(self):
        # theta = pi/2 removes the interference term from the occupation.
        m = sf.zhang_moments(0.5, math.pi / 2)
        assert m.n1 == pytest.approx(math.sinh(0.5) ** 2, abs=1e-12)
        assert m.n2 == m.n1
        assert m.R1 == pytest.approx(0.24677717378228653, abs=1e-12)
        assert m.R2 == m.R1
        assert m.R3 == 0.0 and m.R4 == 0.0
        assert m.gamma1 == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_theta_zero_collapses_pair_channel(self):
        # Equal-weight branches: n1 = sinh^2 r (1 - sech 2r) after the
        # normalization cancels one (1 + sech 2r) factor, and sin(0) kills
        # the pair channel entirely.
        r = 0.8
        m = sf.zhang_moments(r, 0.0)
        expected = math.sinh(r) ** 2 * (1.0 - 1.0 / math.cosh(2 * r))
        assert m.n1 == pytest.approx(expected, abs=1e-12)
        assert m.R1 == 0.0

    def test_degenerate_combination(self):
        with pytest.raises(sf.DegenerateStateError):
            sf.regular(sf.zhang_moments(0.0, math.pi))

    def test_small_r_asymptotics(self):
        theta = 0.99 * math.pi
        c_n, c_r = sf.zhang_small_r_asymptotics(theta)
        assert c_n == pytest.approx((1 - math.cos(theta)) / (1 + math.cos(theta)), rel=1e-12)
        assert c_r == pytest.approx(abs(math.sin(theta)) / (1 + math.cos(theta)), rel=1e-12)
        r = 1e-4
        m = sf.zhang_moments(r, theta)
        assert m.n1 == pytest.approx(c_n * r * r, rel=1e-2)
        assert m.R1 == pytest.approx(c_r * r, rel=1e-2)

    @pytest.mark.parametrize("theta", [0.3, 0.9 * math.pi, 0.99 * math.pi, 0.999999 * math.pi, -2.0])
    def test_asymptotic_coefficients_match_mpmath(self, theta):
        # 1 + cos theta cancels near pi; the half-angle forms do not.
        with mpmath.workdps(50):
            t = mpmath.mpf(theta)
            exact_n = float((1 - mpmath.cos(t)) / (1 + mpmath.cos(t)))
            exact_r = float(abs(mpmath.sin(t)) / (1 + mpmath.cos(t)))
        c_n, c_r = sf.zhang_small_r_asymptotics(theta)
        assert c_n == pytest.approx(exact_n, rel=1e-15)
        assert c_r == pytest.approx(exact_r, rel=1e-15)

    def test_asymptotics_blow_up_at_pi(self):
        with pytest.raises(ZeroDivisionError):
            sf.zhang_small_r_asymptotics(math.pi)


class TestEntangledCoherent:
    def test_aligned_zero_phase_values(self):
        m = sf.entangled_coherent_moments(0.7, 0.0, 0.0, 0.0)
        assert m.n1 == pytest.approx(0.36900229338608037, abs=1e-12)
        assert m.n2 == m.n1
        assert m.R1 == pytest.approx(0.49, abs=1e-12)
        assert m.R2 == pytest.approx(0.49, abs=1e-12)
        assert m.R3 == pytest.approx(m.n1, abs=1e-12)
        assert m.R4 == pytest.approx(0.49, abs=1e-12)

    def test_branch_amplitude_phases_carry_into_channels(self):
        d1, d2 = 0.8, -1.1
        m = sf.entangled_coherent_moments(0.5, 1.0, d1, d2)
        assert m.gamma1 == pytest.approx(sf.wrap_angle(2 * d1), abs=1e-12)
        assert m.gamma2 == pytest.approx(sf.wrap_angle(2 * d2), abs=1e-12)
        assert m.gamma4 == pytest.approx(sf.wrap_angle(d1 + d2), abs=1e-12)

    def test_degenerate_combination(self):
        with pytest.raises(sf.DegenerateStateError):
            sf.regular(sf.entangled_coherent_moments(0.0, math.pi, 0.0, 0.0))


def test_f_sigma_peak_region():
    assert sf.f_sigma(0.7) == pytest.approx(0.2216954006302608, abs=1e-12)
    assert sf.f_sigma(0.0) == 0.0
    # The depth profile decays once the branches decohere.
    assert sf.f_sigma(3.0) < 1e-6


def test_f_sigma_interior_maximum():
    sigmas = np.linspace(0.0, 3.0, 3001)
    vals = np.array([sf.f_sigma(s) for s in sigmas])
    k = int(np.argmax(vals))
    assert 0.65 < sigmas[k] < 0.75
    assert vals[k] == pytest.approx(0.2216980685, abs=1e-6)


# ---------------------------------------------------------------------------
# Array closed forms: a sweep is one batch, a scalar call a batch of one
# ---------------------------------------------------------------------------


def _rows(family: sf.Family, m) -> list[tuple[bool, bytes]]:
    """Per row: the degenerate flag, and the sweep cells' bytes (empty if flagged)."""
    cells = np.column_stack(np.broadcast_arrays(*(np.atleast_1d(c) for c in family.layout.cells(m))))
    flags = np.broadcast_to(getattr(m, "degenerate", False), cells.shape[:1])
    return [(bool(f), b"" if f else row.tobytes()) for f, row in zip(flags, cells)]


def _evaluate(family: sf.Family, fixed: dict, key: str, value):
    return family.moments(family.record({**family.defaults, **fixed, key: value}))


# Degenerate rows inside a batch: eta = -1 at r = 0 (row 0 of vacuum- and of
# superposed-squeezed), theta = pi at r = 0 (row 2), sigma = 0 at theta = pi
# (row 0), and two equal coherent branches cancelling at delta = pi (row 2).
WITH_DEGENERATE_ROWS = [
    ("vacuum-squeezed", {}, "r", np.linspace(0.0, 2.5, 26), [0]),
    ("superposed-squeezed", {"eta": 1.0, "eta_phase": math.pi}, "r", np.linspace(0.0, 1.0, 5), [0]),
    ("zhang", {"r": 0.0}, "theta", np.linspace(0.0, TAU, 5), [2]),
    ("entangled-coherent", {"theta": math.pi}, "sigma", np.linspace(0.0, 1.0, 5), [0]),
    ("coherent-pair", {"alpha": 0.5, "beta": 0.5, "delta2": 0.0}, "delta", np.linspace(0.0, TAU, 5), [2]),
]


# vacuum-squeezed's r axis starts at its degenerate default eta = -1, r = 0: it is listed above.
SWEPT = [
    (name, {}, key)
    for name, family in sf.REGISTRY.items()
    for key in family.defaults
    if (name, key) != ("vacuum-squeezed", "r")
]


@pytest.mark.parametrize(
    "name,fixed,key,values,flagged",
    [(name, fixed, key, np.linspace(0.0, 2.5, 26), []) for name, fixed, key in SWEPT] + WITH_DEGENERATE_ROWS,
    ids=[f"{name}-{key}" for name, _, key in SWEPT] + [f"{c[0]}-degenerate" for c in WITH_DEGENERATE_ROWS],
)
def test_batch_rows_match_batch_of_one_bit_for_bit(name, fixed, key, values, flagged):
    family = sf.REGISTRY[name]
    batch = _rows(family, _evaluate(family, fixed, key, values))
    assert [i for i, (flag, _) in enumerate(batch) if flag] == flagged
    for row, v in zip(batch, values.tolist()):
        assert _rows(family, _evaluate(family, fixed, key, v)) == [row]


#: Families whose closed form has no expression of F of its own.
PLAIN_EXCESS = ("coherent-pair", "barnett-radmore", "zhang")
RECORD_SWEPT = [(name, fixed, key) for name, fixed, key in SWEPT if sf.REGISTRY[name].layout is not sf.SCALAR]


@pytest.mark.parametrize(
    "name,fixed,key,values",
    [(*case, np.linspace(0.0, 2.5, 26)) for case in RECORD_SWEPT] + [case[:4] for case in WITH_DEGENERATE_ROWS],
    ids=[f"{name}-{key}" for name, _, key in RECORD_SWEPT] + [f"{c[0]}-degenerate" for c in WITH_DEGENERATE_ROWS],
)
def test_every_family_returns_the_one_record(name, fixed, key, values):
    family = sf.REGISTRY[name]
    m = _evaluate(family, fixed, key, values)
    assert type(m) is sf.TwoModeMoments
    if family.layout is sf.ONE_MODE:
        # mode 2 stays empty, as one plain 0.0 for the whole batch
        empty = (m.n2, m.R2, m.R3, m.R4, m.gamma2, m.gamma3, m.gamma4)
        assert all(type(v) is float and v == 0.0 for v in empty)
    assert np.array_equal(m.degenerate, m.denominator < sf.DEGENERATE_DENOMINATOR)
    if name in PLAIN_EXCESS:
        assert np.asarray(m.excess).tobytes() == np.asarray(m.R1 - m.n1).tobytes()


def test_scalar_call_returns_numpy_scalars_and_batch_returns_rows():
    m = sf.coherent_superposition_moments(0.8, -0.8, 1.0)
    assert all(isinstance(v, np.float64) for v in (m.n1, m.R1, m.gamma1, m.excess))
    assert not m.degenerate
    m = sf.coherent_superposition_moments(np.array([0.8, 0.5]), np.array([-0.8, 0.5]), -1.0)
    assert m.n1.shape == m.degenerate.shape == (2,)
    assert m.degenerate.tolist() == [False, True]
    assert np.isnan(m.n1[1]) and np.isfinite(m.n1[0])


def test_closed_form_arguments_that_share_one_shape_skip_the_broadcast(monkeypatch):
    # A search stencil: arrays of one shape come back as the same objects,
    # without a call to numpy's broadcast.
    stencil = np.linspace(0.0, 1.0, 12).reshape(2, 6)
    values = (stencil, stencil + 1.0, 2.0j * stencil)

    def unexpected(*args):
        raise AssertionError("arrays of one shape went through the broadcast")

    with monkeypatch.context() as patch:
        patch.setattr(np, "broadcast_shapes", unexpected)
        patch.setattr(np, "atleast_1d", unexpected)
        shape, *rows = sf._rows(*values)
    assert shape == (2, 6)
    assert all(row is value for row, value in zip(rows, values))
    # Anything else is broadcast to one batch shape, each value an array of at least one row.
    shape, *rows = sf._rows(0.5, np.array([0.1, 0.2, 0.3]), np.zeros((2, 1)), np.float64(2.0))
    assert shape == (2, 3)
    assert [row.shape for row in rows] == [(1,), (3,), (2, 1), (1,)]
    shape, *rows = sf._rows(0.5, 1j)
    assert shape == () and [row.shape for row in rows] == [(1,), (1,)]


def test_polar_keeps_the_phase_cut_and_the_zero_convention():
    # A pair moment on the negative real axis with a -0 imaginary part has
    # arctan2 phase -pi; (-pi, pi] puts it at +pi.  Magnitudes below 1e-15
    # get (0, 0).
    m = sf.TwoModeMoments(0.0, 0.0, np.array([-2.0 - 0.0j, -2.0 + 0.0j, 1e-16 + 0.0j, 0.0j, -1e-16 - 0.0j]), 0.0, 0.0, 0.0)
    assert m.R1.tolist() == [2.0, 2.0, 0.0, 0.0, 0.0]
    assert m.gamma1.tolist() == [math.pi, math.pi, 0.0, 0.0, 0.0]
    # The squeezed vacuum at delta = 0 has the pair moment -sinh r cosh r - 0j:
    # row 0 (r = 0) is the zero convention, every other row sits on the cut.
    m = sf.squeezed_vacuum_moments(np.linspace(0.0, 1.0, 5), 0.0)
    assert m.R1[0] == 0.0 and m.gamma1[0] == 0.0
    assert np.all(m.R1[1:] > 0.0) and np.all(m.gamma1[1:] == math.pi)


# ---------------------------------------------------------------------------
# Derived fields: R and gamma from the stored complex channels
# ---------------------------------------------------------------------------


def _reference_wrap_angle(x):
    """A copy of ``wrap_angle``: the reference for the derived phases."""
    y = np.remainder(np.add(x, np.pi), 2.0 * np.pi) - np.pi
    return np.where(y <= -np.pi, np.pi, y)[()]


def _reference_polar(z):
    """Magnitude and wrapped phase, (0, 0) below magnitude 1e-15: the reference for R and gamma."""
    mag = np.abs(z)
    small = mag < 1e-15
    return np.where(small, 0.0, mag), np.where(small, 0.0, _reference_wrap_angle(np.arctan2(z.imag, z.real)))


_TINY = 1e-15
_EDGE_CHANNELS = np.array([
    0.0j, -0.0 + 0.0j, 0.0 - 0.0j, -0.0 - 0.0j,  # +-0.0 components
    -2.0 + 0.0j, -2.0 - 0.0j, 2.0 * np.exp(1j * math.pi), 2.0 * np.exp(-1j * math.pi),  # angles at +-pi
    -3.0 + 5e-324j, -3.0 - 5e-324j, complex(-0.0, 3.0), complex(0.0, -3.0), complex(-3.0, 0.0),
    *(np.nextafter(_TINY, 0.0) * np.exp(1j * np.array([0.0, 1.0, math.pi, -2.5]))),  # just under 1e-15
    *(np.nextafter(_TINY, 1.0) * np.exp(1j * np.array([0.0, 1.0, math.pi, -2.5]))),  # just over
    complex(np.nextafter(_TINY, 0.0), 0.0), complex(np.nextafter(_TINY, 1.0), 0.0), complex(-_TINY, 0.0),
    complex(-_TINY, -0.0), complex(0.0, -_TINY),
])


def _random_channels(rng, size):
    mag = 10.0 ** rng.uniform(-20.0, 6.0, size)
    return mag * np.exp(1j * rng.uniform(-4.0, 4.0, size))


def _assert_bits(got, want, what):
    assert np.shape(got) == np.shape(want), what
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes(), what


def test_derived_fields_equal_the_stored_polar_rule_bit_for_bit():
    rng = np.random.default_rng(21)
    channels = [np.concatenate((_EDGE_CHANNELS, _random_channels(rng, 4000))) for _ in range(4)]
    for batch in channels:
        rng.shuffle(batch)
    m = sf.TwoModeMoments(np.ones(channels[0].shape), 0.0, *channels)
    for k, z in enumerate(channels, start=1):
        mag, phase = _reference_polar(z)
        _assert_bits(getattr(m, f"R{k}"), mag, f"R{k}")
        _assert_bits(getattr(m, f"gamma{k}"), phase, f"gamma{k}")
    _assert_bits(m.excess, _reference_polar(channels[0])[0] - 1.0, "excess")
    # One channel at a time, as numpy scalars and as Python numbers: the same bits.
    for z in [*_EDGE_CHANNELS, *channels[1][:200]]:
        mag, phase = _reference_polar(z)
        for channel in (z, complex(z)):
            one = sf.TwoModeMoments(0.5, 0.0, channel, 0.0, 0.0, 0.0)
            assert isinstance(one.R1, np.float64) and isinstance(one.gamma1, np.float64)
            _assert_bits(one.R1, mag, z)
            _assert_bits(one.gamma1, phase, z)


def test_an_empty_channel_derives_the_float_zero():
    mag, phase = _reference_polar(0.0)
    m = sf.TwoModeMoments(0.3, 0.0, 0.0, 0.0, 0.0, 0.0)
    for name in ("R1", "R2", "R3", "R4", "gamma1", "gamma2", "gamma3", "gamma4"):
        value = getattr(m, name)
        assert type(value) is float, name
        _assert_bits(value, mag if name.startswith("R") else phase, name)
    assert m.excess == -0.3


def test_derived_fields_of_a_scalar_call_are_numpy_scalars_and_of_a_batch_keep_its_shape():
    def record(sigma, theta):
        return sf.entangled_coherent_moments(sigma, theta, 0.4, 1.3)

    derived = ("R1", "R2", "R3", "R4", "gamma1", "gamma2", "gamma3", "gamma4")
    one = record(0.9, 0.7)
    for name in derived:
        assert isinstance(getattr(one, name), np.float64) and np.shape(getattr(one, name)) == (), name
    sigma, theta = np.linspace(0.2, 1.5, 6).reshape(2, 3), np.array([0.0, 0.7, 2.0])
    batch = record(sigma, theta)
    for name in derived:
        assert np.shape(getattr(batch, name)) == (2, 3), name
        for i, j in np.ndindex(2, 3):
            _assert_bits(getattr(batch, name)[i, j], getattr(record(sigma[i, j], theta[j]), name), (name, i, j))


def test_a_channel_stored_as_another_is_derived_once(monkeypatch):
    calls = []
    wrap = sf.wrap_angle
    monkeypatch.setattr(sf, "wrap_angle", lambda x: calls.append(1) or wrap(x))
    for r in (0.3, np.linspace(0.1, 0.5, 4)):  # a scalar call and a batch
        calls.clear()
        m = sf.zhang_moments(r, 2.0)
        assert m.b2 is m.a2
        assert m.gamma2 is m.gamma1 and m.R2 is m.R1
        assert len(calls) == 1


def test_only_a_read_of_a_phase_derives_it(monkeypatch, capsys):
    from subvacuum.cli import main
    from subvacuum.optimizer import objective_F

    def boom(x):
        raise AssertionError("a phase was derived")

    monkeypatch.setattr(sf, "wrap_angle", boom)
    view = sf.SEARCHES["coherent-pair"][1]
    assert np.all(np.isfinite(objective_F(view, _stencil(view, _stencil_points(view)[0]))))
    for name, family in sf.REGISTRY.items():
        if family.defaults:
            key = next(iter(family.defaults))
            assert main(["sweep", "--family", name, "--sweep", f"{key}=0.1:1:8"]) == 0, name
    capsys.readouterr()
    with pytest.raises(AssertionError, match="phase"):
        sf.coherent_superposition_moments(0.8, -0.8, 1.0).gamma1


@pytest.mark.parametrize("name,derivations", [("entangled-coherent", 4), ("zhang", 1), ("coherent-pair", 1)])
def test_density_profile_derives_each_phase_once(name, derivations, monkeypatch):
    from subvacuum import energy_density as ed

    family = sf.REGISTRY[name]
    params = {**family.defaults, "theta": 0.7} if "theta" in family.defaults else family.defaults
    calls, evaluations = [], []
    wrap, span_rho = sf.wrap_angle, ed._span_rho
    monkeypatch.setattr(sf, "wrap_angle", lambda x: calls.append(1) or wrap(x))
    monkeypatch.setattr(ed, "_span_rho", lambda *args: evaluations.append(1) or span_rho(*args))
    m = family.moments(family.record(params))
    assert calls == []
    ed.density_profile(m, ed.ModeGeometry("traveling", 1.0, 1.5, 0.3), 6.0, 16)
    assert len(evaluations) > 100  # every polish evaluation
    assert len(calls) == derivations


def _stencil(view: sf.SearchView, x) -> np.ndarray:
    """The (dim + 1, dim) batch of one search gradient: x, then x stepped along each axis."""
    x = np.asarray(x, dtype=float)
    return view.clamp(np.vstack([x, x + np.diag(np.full(view.dim, 1e-8))]))


def _stencil_points(view: sf.SearchView) -> list[np.ndarray]:
    """An interior draw, a point on the box's upper edge (the stencil clips
    back onto it), and for the coherent pair its degenerate equal-branch
    point alpha = beta, delta2 = 0, eta = 1, delta = pi (every other phase 0)."""
    lo, hi = np.array(view.lower), np.array(view.upper)
    drawn = lo + (hi - lo) * np.random.default_rng(3).uniform(size=view.dim)
    edge = np.where(view.angular, drawn, hi)
    points = [drawn, edge]
    if "delta2" in view.names:
        degenerate = dict.fromkeys(view.names, 0.0) | {"alpha": 0.5, "beta": 0.5, "eta": 1.0, "delta": math.pi}
        points.append(np.array([degenerate[k] for k in view.names]))
    return points


@pytest.mark.parametrize("view_name", list(sf.SEARCHES))
def test_search_stencil_rows_match_each_row_alone_bit_for_bit(view_name):
    view = sf.SEARCHES[view_name][1]
    for point in _stencil_points(view):
        stencil = _stencil(view, point)
        batch = view.moments_of(stencil)
        for i, row in enumerate(stencil):
            alone = view.moments_of(row)
            for f in dataclasses.fields(batch):
                value, column = getattr(alone, f.name), getattr(batch, f.name)
                if type(column) is float:  # one plain value for every row: an empty channel, a denominator of 1
                    assert type(value) is float and value == column, f.name
                    continue
                assert np.shape(value) == () and isinstance(value, np.generic), f.name
                assert np.asarray(column)[i].tobytes() == value.tobytes(), (i, f.name)
    if "delta2" in view.names:
        assert bool(view.moments_of(_stencil_points(view)[-1]).degenerate)


@pytest.mark.parametrize("view_name", list(sf.SEARCHES))
def test_search_view_is_its_family_record_at_its_keys_bit_for_bit(view_name):
    # A key the family lacks would leave that coordinate searching nothing.
    family_name, view = sf.SEARCHES[view_name]
    family = sf.REGISTRY[family_name]
    assert set(view.names) <= set(family.defaults)
    point = _stencil_points(view)[0]
    for p in (_stencil(view, point), point):
        expected = family.moments(family.record({**family.defaults, **dict(zip(view.names, p.T))}))
        got = view.moments_of(p)
        for f in dataclasses.fields(got):
            value, want = getattr(got, f.name), getattr(expected, f.name)
            assert type(value) is type(want), f.name
            assert np.asarray(value).tobytes() == np.asarray(want).tobytes(), f.name
