"""Unit tests for the truncated number-basis oracle.

Expected values come from three independent sources: textbook coherent/squeezed
state identities (n = |alpha|^2, n = sinh^2 r, ...), hand-evaluated series, and
direct re-summation of the hypergeometric-style series behind the squeezed
overlap formulas.  Truncation tolerances are measured, not guessed: the
assertions encode the worst deviation observed at the stated cutoff with a
small safety factor.
"""

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from subvacuum import fock_oracle as fo

SINH1_SQ = math.sinh(1.0) ** 2  # 1.3810978455418157
SC1 = math.sinh(1.0) * math.cosh(1.0)  # 1.8134302039235095


class TestCoherentVector:
    def test_vacuum_is_trivial(self):
        v = fo.coherent_vector(0.0, 8)
        assert v.amps[0] == pytest.approx(1.0)
        assert np.allclose(v.amps[1:], 0.0)

    def test_small_amplitude_occupation(self):
        v = fo.coherent_vector(0.5, 40)
        m = fo.two_mode_moments(v)
        assert m.n1 == pytest.approx(0.25, abs=1e-12)
        assert m.a2 == pytest.approx(0.25, abs=1e-12)

    def test_eigenstate_pair_moment(self):
        # <a^2> = alpha^2 for any coherent state, phases included.
        alpha = 0.8 * np.exp(0.3j)
        m = fo.two_mode_moments(fo.coherent_vector(alpha, 48))
        assert m.n1 == pytest.approx(0.64, abs=1e-11)
        assert m.a2 == pytest.approx(alpha**2, abs=1e-11)

    def test_mean_amplitude_is_the_eigenvalue(self):
        alpha = 0.8 * np.exp(0.3j)
        v = fo.coherent_vector(alpha, 48)
        assert fo.inner(v, v, "a") == pytest.approx(alpha, abs=1e-11)

    def test_displaced_cat_has_the_centred_cat_moments(self):
        # |c + a> + |c - a> is the even cat |a> + |-a> displaced by c, so
        # <a> = c, and n - |<a>|^2 and <a^2> - <a>^2 are the cat's own
        # a^2 tanh(a^2) and a^2.
        a, c = 0.8, 0.5
        v = fo.superpose([(1.0, fo.coherent_vector(c + a, 64)), (1.0, fo.coherent_vector(c - a, 64))])
        mu = fo.inner(v, v, "a")
        m = fo.two_mode_moments(v)
        assert mu == pytest.approx(c, abs=1e-12)
        assert m.n1 - abs(mu) ** 2 == pytest.approx(a * a * math.tanh(a * a), abs=1e-12)
        assert m.a2 - mu**2 == pytest.approx(a * a, abs=1e-12)

    def test_moderate_amplitude_tail_is_negligible(self):
        v = fo.coherent_vector(1.61, 40)
        assert fo.tail_mass(v) < 1e-12

    def test_severe_truncation_is_flagged(self):
        v = fo.coherent_vector(3.0, 12)
        assert fo.tail_mass(v) > 1e-3

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            fo.coherent_vector(1.0, 0)

    @pytest.mark.parametrize("shape", [(1,), (3, 1), (0,)])
    def test_amplitudes_need_two_photon_numbers(self, shape):
        with pytest.raises(ValueError, match="last axis of length >= 2"):
            fo.FockVector(np.ones(shape, dtype=complex))


class TestSqueezedVacuumVector:
    def test_zero_squeeze_is_vacuum(self):
        v = fo.squeezed_vacuum_vector(0.0, 0.0, 8)
        assert v.amps[0] == pytest.approx(1.0)
        assert np.allclose(v.amps[1:], 0.0)

    def test_odd_amplitudes_vanish(self):
        v = fo.squeezed_vacuum_vector(1.3, 0.4, 64)
        assert np.all(v.amps[1::2] == 0.0)

    def test_occupation_matches_sinh_squared(self):
        # Bogoliubov consequence; measured cutoff-64 truncation error is
        # 1.6e-7, so 5e-7 is a tight but honest bound.
        m = fo.two_mode_moments(fo.squeezed_vacuum_vector(1.0, 0.0, 64))
        assert abs(m.n1 - SINH1_SQ) < 5e-7

    def test_pair_moment_direction(self):
        # <a^2> = -e^{i delta} sinh r cosh r.
        delta = 0.7
        m = fo.two_mode_moments(fo.squeezed_vacuum_vector(1.0, delta, 128))
        assert m.a2 == pytest.approx(-np.exp(1j * delta) * SC1, abs=1e-9)

    def test_heavy_tail_flag_and_strict_rejection(self):
        # At r=1 the top-decile mass of a 64-cutoff vector sits just above
        # 1e-8 (measured: 1.01e-8), so a 1e-8 target is refused under a cap
        # of 64 and met at the next doubling.
        v = fo.squeezed_vacuum_vector(1.0, 0.0, 64)
        assert 1e-8 < fo.tail_mass(v) < 1e-7

        def build(cutoff):
            return fo.squeezed_vacuum_vector(1.0, 0.0, cutoff)

        with pytest.raises(fo.TruncationError):
            fo.fitted(build, 1e-8, 64)
        relaxed = fo.fitted(build, 1e-8, 128)
        assert relaxed.cutoff == 128
        assert fo.tail_mass(relaxed) <= 1e-8

    def test_negative_squeeze_rejected(self):
        with pytest.raises(ValueError):
            fo.squeezed_vacuum_vector(-0.5, 0.0, 16)

    def test_cutoff_must_hold_a_pair(self):
        with pytest.raises(ValueError):
            fo.squeezed_vacuum_vector(0.5, 0.0, 1)


def zhang_state(r: float, theta: float, cutoff: int) -> fo.TwoModeFockVector:
    """|-r, -r> + e^{i theta} |r, r>, the phase superposition of doubly-squeezed vacua."""
    minus = fo.squeezed_vacuum_vector(r, math.pi, cutoff)
    plus = fo.squeezed_vacuum_vector(r, 0.0, cutoff)
    return fo.superpose_two_mode([(1.0, minus, minus), (np.exp(1j * theta), plus, plus)])


def dense_grid(v: fo.TwoModeFockVector) -> np.ndarray:
    """The (M+1)^2 amplitude grid A[m, n] of |m, n>, as a reference."""
    if v.weights is None:
        return np.diag(v.amps)
    return sum(w * np.outer(u, x) for w, u, x in zip(v.weights, v.amps[0], v.amps[-1]))


def dense_moments(v: fo.TwoModeFockVector) -> list[complex]:
    """n1, n2, <a^2>, <b^2>, <a^dag b>, <ab> and the tail mass on the dense grid.

    <X (x) Y> = sum_mn conj(A_mn) (X A Y^T)_mn with operator matrices: no
    index shifts shared with the oracle.
    """
    A = dense_grid(v)
    size = A.shape[0]
    a, one = np.diag(np.sqrt(np.arange(1.0, size)), 1), np.eye(size)
    top = np.diag((np.arange(size) >= size - max(1, size // 10)).astype(float))

    def expect(x, y):
        return complex(np.vdot(A, x @ A @ y.T))

    return [
        expect(a.T @ a, one),
        expect(one, a.T @ a),
        expect(a @ a, one),
        expect(one, a @ a),
        expect(a.T, a),
        expect(a, a),
        expect(top, one) + expect(one, top),
    ]


class TestTwoModeSqueezedVector:
    def test_zero_squeeze_is_vacuum(self):
        v = fo.two_mode_squeezed_vector(0.0, 0.0, 4)
        assert v.amps[0] == pytest.approx(1.0)
        assert np.abs(v.amps).sum() == pytest.approx(1.0)

    def test_population_is_diagonal(self):
        # Only the Schmidt coefficients c_n of |n, n> are stored, in the
        # ratio -e^{i delta} tanh r.
        v = fo.two_mode_squeezed_vector(0.8, 0.3, 16)
        assert v.weights is None and v.amps.shape == (17,)
        assert v.amps[1:] / v.amps[:-1] == pytest.approx(np.full(16, -np.exp(0.3j) * math.tanh(0.8)), abs=1e-15)

    def test_occupations_and_pair_channel(self):
        # n1 = n2 = sinh^2 r and |<ab>| = sinh r cosh r; measured cutoff-32
        # truncation errors are ~7e-7.
        m = fo.two_mode_moments(fo.two_mode_squeezed_vector(1.0, 0.0, 32))
        assert abs(m.n1 - SINH1_SQ) < 2e-6
        assert abs(m.n2 - SINH1_SQ) < 2e-6
        assert abs(abs(m.ab) - SC1) < 2e-6
        assert abs(m.a2) < 1e-12 and abs(m.b2) < 1e-12 and abs(m.adag_b) < 1e-12

    def test_half_squeeze_pair_magnitude(self):
        m = fo.two_mode_moments(fo.two_mode_squeezed_vector(0.5, 1.1, 32))
        assert abs(m.ab) == pytest.approx(math.sinh(0.5) * math.cosh(0.5), abs=1e-9)

    def test_cutoff_validation(self):
        assert fo.two_mode_squeezed_vector(0.5, 0.0, 2).cutoff == 2
        with pytest.raises(ValueError, match="cutoff must be at least 2"):
            fo.two_mode_squeezed_vector(0.5, 0.0, 1)


@pytest.mark.parametrize(
    "amps, weights",
    [
        ((1,), None),  # a Schmidt state needs two photon numbers
        ((2, 1), np.ones(1)),  # a product sum needs a mode and a term axis
        ((3, 1, 5), np.ones(1)),  # three modes
        ((0, 1, 5), np.ones(1)),  # no mode
        ((2, 2, 5), np.ones(1)),  # two factors per mode, one weight
        ((4, 2, 1, 5), np.ones((3, 1))),  # four batch rows, three weight rows
        ((2, 1, 1), np.ones(1)),  # one photon number
    ],
)
def test_two_mode_amplitude_shapes_are_checked(amps, weights):
    with pytest.raises(ValueError, match=r"\(\.\.\., 1 or 2, k, M\+1\)"):
        fo.TwoModeFockVector(np.ones(amps, dtype=complex), weights)


class TestProductsAndSuperpositions:
    def test_product_state_factorizes(self):
        a, b = 0.9 * np.exp(0.2j), 0.4 * np.exp(-1.1j)
        p = fo.superpose_two_mode([(1.0, fo.coherent_vector(a, 32), fo.coherent_vector(b, 32))])
        m = fo.two_mode_moments(p)
        assert m.n1 == pytest.approx(abs(a) ** 2, abs=1e-10)
        assert m.adag_b == pytest.approx(np.conj(a) * b, abs=1e-10)
        assert m.ab == pytest.approx(a * b, abs=1e-10)
        assert m.b2 == pytest.approx(b**2, abs=1e-10)

    def test_squeezed_product_has_no_cross_channels(self):
        s = fo.squeezed_vacuum_vector(1.0, 0.0, 128)
        m = fo.two_mode_moments(fo.superpose_two_mode([(1.0, s, s)]))
        assert abs(m.adag_b) < 1e-12 and abs(m.ab) < 1e-12
        assert m.a2 == pytest.approx(-SC1, abs=1e-6)
        assert m.b2 == pytest.approx(-SC1, abs=1e-6)

    def test_single_term_superposition_is_identity(self):
        v = fo.coherent_vector(0.7, 32)
        w = fo.superpose([(1.0, v)])
        assert np.allclose(w.amps, v.amps)

    def test_cancellation_raises(self):
        # One error for a vanishing norm, whether the oracle or a closed form finds it.
        from subvacuum import state_families

        assert state_families.DegenerateStateError is fo.DegenerateStateError
        v = fo.squeezed_vacuum_vector(1.0, 0.0, 64)
        with pytest.raises(fo.DegenerateStateError):
            fo.superpose([(1.0, v), (-1.0, v)])
        u = fo.coherent_vector(0.5, 64)
        with pytest.raises(fo.DegenerateStateError):
            fo.superpose_two_mode([(1.0, u, v), (-1.0, u, v)])

    @pytest.mark.parametrize("combine", [fo.superpose, fo.superpose_two_mode])
    def test_empty_superposition_rejected(self, combine):
        with pytest.raises(ValueError, match="at least one term"):
            combine([])

    def test_mismatched_cutoffs_rejected(self):
        with pytest.raises(ValueError):
            fo.superpose([(1.0, fo.coherent_vector(0.5, 16)), (1.0, fo.coherent_vector(0.5, 32))])
        with pytest.raises(ValueError):
            fo.inner(fo.coherent_vector(0.5, 16), fo.coherent_vector(0.5, 32))
        with pytest.raises(ValueError):
            fo.superpose_two_mode([(1.0, fo.coherent_vector(0.5, 16), fo.coherent_vector(0.5, 32))])

    def test_opposite_squeeze_difference_matches_closed_form(self):
        # N(|r> - |-r>) at r=1: closed forms from the two-branch overlap
        # algebra.  Cutoff 128 brings the truncation error to ~1e-14 (at 64
        # the occupation still differs by 4e-7).
        from subvacuum.state_families import superposed_squeezed_moments

        plus = fo.squeezed_vacuum_vector(1.0, 0.0, 128)
        minus = fo.squeezed_vacuum_vector(1.0, math.pi, 128)
        st = fo.superpose([(1.0, plus), (-1.0, minus)])
        om = fo.two_mode_moments(st)
        cm = superposed_squeezed_moments(r=1.0, eta=-1.0)
        assert abs(om.n1 - cm.n1) < 1e-8
        assert abs(om.a2 - cm.R1 * np.exp(1j * cm.gamma1)) < 1e-8

    def test_phase_superposed_double_squeeze(self):
        # Two-branch two-mode state at theta = pi/2: the cross term drops out
        # of the occupation, which must then equal sinh^2 r.
        from subvacuum.state_families import zhang_moments

        r, theta = 0.5, math.pi / 2
        st = fo.fitted(lambda cut: zhang_state(r, theta, cut), 1e-12, 4096)
        m = fo.two_mode_moments(st)
        cm = zhang_moments(r=r, theta=theta)
        assert abs(m.n1 - cm.n1) < 1e-8
        assert m.n1 == pytest.approx(math.sinh(r) ** 2, abs=1e-8)

    def test_entangled_coherent_pair_channel(self):
        # sigma = 0.7, theta = 0 collapses to a plain product state, so the
        # pair-creation channel is exactly sigma^2 = 0.49.
        sigma = 0.7
        c = fo.coherent_vector(sigma, 32)
        cm = fo.coherent_vector(-sigma, 32)
        st = fo.superpose_two_mode([(1.0, c, c), (1.0, cm, cm)])
        m = fo.two_mode_moments(st)
        assert abs(m.ab - 0.49) < 1e-10


_TWO_MODE_STATES = {
    "product": fo.superpose_two_mode(
        [
            (
                1.0,
                fo.superpose([(1.0, fo.squeezed_vacuum_vector(0.9, 0.4, 24)), (0.6j, fo.coherent_vector(0.7, 24))]),
                fo.coherent_vector(1.1 * np.exp(0.5j), 24),
            )
        ]
    ),
    "zhang": fo.superpose_two_mode(
        [
            (1.0, fo.squeezed_vacuum_vector(1.0, math.pi, 24), fo.squeezed_vacuum_vector(1.0, math.pi, 24)),
            (np.exp(1.3j), fo.squeezed_vacuum_vector(1.0, 0.0, 24), fo.squeezed_vacuum_vector(1.0, 0.0, 24)),
        ]
    ),
    "entangled-coherent": fo.superpose_two_mode(
        [
            (1.0, fo.coherent_vector(1.1 * np.exp(0.4j), 24), fo.coherent_vector(1.1 * np.exp(2.0j), 24)),
            (np.exp(0.7j), fo.coherent_vector(-1.1 * np.exp(0.4j), 24), fo.coherent_vector(-1.1 * np.exp(2.0j), 24)),
        ]
    ),
    "two-mode-squeezed": fo.two_mode_squeezed_vector(1.0, 0.3, 24),
}


@pytest.mark.parametrize("name", _TWO_MODE_STATES)
def test_two_mode_moments_match_the_dense_grid(name):
    # Cutoff 24 keeps tails of up to ~1e-5, so the tail masses are compared
    # where they are not negligible.
    v = _TWO_MODE_STATES[name]
    m = fo.two_mode_moments(v)
    got = [m.n1, m.n2, m.a2, m.b2, m.adag_b, m.ab, fo.tail_mass(v)]
    assert np.linalg.norm(dense_grid(v)) == pytest.approx(1.0, abs=1e-12)
    assert got == pytest.approx(dense_moments(v), abs=1e-12)


def test_oracle_moments_are_the_one_record_with_R_and_gamma_derived():
    from subvacuum.state_families import TwoModeMoments, wrap_angle

    alpha, beta = 0.9 * np.exp(0.4j), 1.2 * np.exp(-2.1j)
    states = [
        fo.two_mode_moments(fo.superpose_two_mode([(1.0, fo.coherent_vector(alpha, 48), fo.coherent_vector(beta, 48))])),
        fo.two_mode_moments(fo.two_mode_squeezed_vector(np.array([0.0, 0.8]), 2.9, 64)),
        fo.two_mode_moments(fo.coherent_vector(np.array([alpha, beta, 0.0]), 48)),
        fo.two_mode_moments(fo.squeezed_vacuum_vector(0.7, -1.2, 64)),
    ]
    for m in states:
        assert type(m) is TwoModeMoments
        for k, channel in enumerate(("a2", "b2", "adag_b", "ab"), start=1):
            z = getattr(m, channel)
            zero = np.abs(z) < 1e-15
            assert np.array_equal(getattr(m, f"R{k}"), np.where(zero, 0.0, np.abs(z))), (k, z)
            assert np.array_equal(getattr(m, f"gamma{k}"), np.where(zero, 0.0, wrap_angle(np.angle(z)))), (k, z)
        assert np.asarray(m.excess).tobytes() == np.asarray(m.R1 - m.n1).tobytes()
        assert m.denominator == 1.0 and not np.any(m.degenerate)
    assert states[0].R4 == pytest.approx(abs(alpha * beta), abs=1e-12)
    assert states[0].gamma3 == pytest.approx(wrap_angle(np.angle(np.conj(alpha) * beta)), abs=1e-12)


_ONE_MODE_BATCHES = {
    "coherent": fo.coherent_vector(np.array([0.0, 0.9 * np.exp(0.4j), -1.3j]), 48),
    "squeezed-vacuum": fo.squeezed_vacuum_vector(np.array([0.0, 0.6, 1.1]), np.array([0.0, 2.1, -0.7]), 128),
    "superposed": fo.superpose(
        [
            (1.0, fo.coherent_vector(np.array([0.5, -0.8, 1.2j]), 64)),
            (np.array([1.0, 0.6j, -0.3]), fo.squeezed_vacuum_vector(0.7, 0.3, 64)),
        ]
    ),
}


@pytest.mark.parametrize("name", _ONE_MODE_BATCHES)
def test_one_mode_state_reads_as_mode_1_of_its_product_with_vacuum(name):
    # Stored alone or as the product u (x) |0>, a one-mode state gives the
    # same record: its moments in mode 1, and mode 2 empty.
    u = _ONE_MODE_BATCHES[name]
    alone = fo.two_mode_moments(u)
    product = fo.two_mode_moments(fo.superpose_two_mode([(1.0, u, fo.coherent_vector(0.0, u.cutoff))]))
    for channel in ("n1", "n2", "a2", "b2", "adag_b", "ab"):
        assert np.shape(getattr(alone, channel)) == np.shape(getattr(product, channel)) == (3,), channel
        assert np.max(np.abs(getattr(alone, channel) - getattr(product, channel))) <= 1e-12, channel


def test_zhang_oracle_memory_at_the_verification_cutoff():
    # At r = 2.5 the verification tail target 1e-12 needs cutoff 4096; a
    # dense two-mode grid alone would take 16 * 4097^2 bytes = 268 MB.
    tracemalloc.start()
    try:
        st = fo.fitted(lambda cut: zhang_state(2.5, 1.3, cut), 1e-12, 4096)
        fo.two_mode_moments(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.amps.shape == (1, 2, 4097)
    assert peak < 32 * 2**20


class TestInnerProduct:
    def test_self_overlap_is_unity(self):
        v = fo.squeezed_vacuum_vector(0.9, 0.2, 64)
        assert fo.inner(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_squeeze_overlap(self):
        # <-xi|xi> = sqrt(sech 2r); at r=1 this is 0.51556011...
        cut = fo.fitted(lambda c: fo.squeezed_vacuum_vector(1.0, 0.0, c), 1e-12, 4096).cutoff
        ip = fo.inner(
            fo.squeezed_vacuum_vector(1.0, math.pi, cut),
            fo.squeezed_vacuum_vector(1.0, 0.0, cut),
        )
        assert ip == pytest.approx(math.sqrt(1.0 / math.cosh(2.0)), abs=1e-12)
        assert abs(ip.imag) < 1e-14

    def test_squeezed_coherent_overlap(self):
        # <xi|alpha> at delta=0: exp(-alpha^2/2) sqrt(sech r)
        #                        * exp(-alpha^2 tanh r / 2).
        r, alpha = 0.8, 0.6
        ket = fo.fitted(lambda c: fo.squeezed_vacuum_vector(r, 0.0, c), 1e-12, 4096)
        ip = fo.inner(ket, fo.coherent_vector(alpha, ket.cutoff))
        closed = (
            math.exp(-(alpha**2) / 2.0)
            * math.sqrt(1.0 / math.cosh(r))
            * math.exp(-0.5 * alpha**2 * math.tanh(r))
        )
        assert ip == pytest.approx(closed, abs=1e-10)


# ---------------------------------------------------------------------------
# Module-wide invariants
# ---------------------------------------------------------------------------

_SAMPLE_STATES = [
    fo.coherent_vector(0.0, 16),
    fo.coherent_vector(1.2 * np.exp(0.9j), 64),
    fo.squeezed_vacuum_vector(0.6, 2.1, 64),
    fo.squeezed_vacuum_vector(1.8, 4.0, 512),
    fo.superpose(
        [
            (1.0, fo.squeezed_vacuum_vector(0.8, 0.0, 64)),
            (0.5j, fo.coherent_vector(0.3, 64)),
        ]
    ),
]


@pytest.mark.parametrize("state", _SAMPLE_STATES)
def test_states_are_normalized(state):
    assert fo.inner(state, state) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("state", _SAMPLE_STATES)
def test_occupation_real_and_nonnegative(state):
    m = fo.two_mode_moments(state)
    assert m.n1 >= -1e-12


@pytest.mark.parametrize("state", _SAMPLE_STATES)
def test_global_phase_invariance(state):
    chi = 1.234
    rotated = fo.FockVector(np.exp(1j * chi) * state.amps)
    m0, m1 = fo.two_mode_moments(state), fo.two_mode_moments(rotated)
    assert m1.n1 == pytest.approx(m0.n1, abs=1e-12)
    assert m1.a2 == pytest.approx(m0.a2, abs=1e-12)


@pytest.mark.parametrize("state", _SAMPLE_STATES)
def test_cauchy_schwarz_pair_bound(state):
    m = fo.two_mode_moments(state)
    assert abs(m.a2) <= math.sqrt(m.n1 * (m.n1 + 1.0)) + 1e-9


def test_amplitudes_are_immutable():
    v = fo.coherent_vector(0.5, 16)
    with pytest.raises(ValueError):
        v.amps[0] = 0.0


@pytest.mark.parametrize("r", [0.25, 0.5, 1.0])
def test_binomial_series_resummation(r):
    """Partial sums of sum_n (2n)!/(n!(n-1)!) (-1)^n (x/2)^(2n-2).

    This alternating series is what collapses the opposite-squeeze occupation
    element to closed form; it must converge to -2/(1+x^2)^(3/2).  Terms are
    evaluated through log-gamma so the factorial ratio never overflows.
    """
    x = math.tanh(r)
    n = np.arange(1, 400, dtype=float)
    logterm = gammaln(2 * n + 1) - gammaln(n + 1) - gammaln(n) + (2 * n - 2) * math.log(x / 2.0)
    series = float(np.sum((-1.0) ** n * np.exp(logterm)))
    assert series == pytest.approx(-2.0 / (1.0 + x * x) ** 1.5, abs=1e-10)


def mp_squeezed_amps(r, delta, cutoff):
    """sqrt(sech r) (-e^{i delta} tanh r)^k sqrt((2k)!) / (2^k k!) on |2k>."""
    r = mpmath.mpf(r)
    ratio = -mpmath.expj(delta) * mpmath.tanh(r)
    amps = [mpmath.mpc(0)] * (cutoff + 1)
    for k in range(cutoff // 2 + 1):
        amps[2 * k] = ratio**k * mpmath.sqrt(mpmath.factorial(2 * k)) / (2**k * mpmath.factorial(k))
    return [a / mpmath.sqrt(mpmath.cosh(r)) for a in amps]


def mp_two_mode_squeezed_amps(r, delta, cutoff):
    """(-e^{i delta} tanh r)^n / cosh r on |n, n>."""
    r = mpmath.mpf(r)
    return [(-mpmath.expj(delta) * mpmath.tanh(r)) ** n / mpmath.cosh(r) for n in range(cutoff + 1)]


def mp_coherent_amps(alpha, cutoff):
    """e^{-|alpha|^2/2} alpha^l / sqrt(l!) on |l>."""
    alpha = mpmath.mpc(alpha)
    return [mpmath.exp(-abs(alpha) ** 2 / 2) * alpha**l / mpmath.sqrt(mpmath.factorial(l)) for l in range(cutoff + 1)]


@pytest.mark.parametrize(
    "build,reference",
    [
        (lambda: fo.squeezed_vacuum_vector(2.5, 0.7, 4096), lambda: mp_squeezed_amps(2.5, 0.7, 4096)),
        (lambda: fo.two_mode_squeezed_vector(2.5, 0.7, 4096), lambda: mp_two_mode_squeezed_amps(2.5, 0.7, 4096)),
        (lambda: fo.coherent_vector(2 + 1j, 128), lambda: mp_coherent_amps(2 + 1j, 128)),
    ],
    ids=["squeezed-vacuum", "two-mode-squeezed", "coherent"],
)
def test_amplitudes_match_40_digit_reference(build, reference):
    # The builders renormalize the retained piece, so the reference is
    # renormalized over the same photon numbers.  Measured worst errors:
    # 4.4e-16 absolute and 2.5e-13 relative (two-mode squeezed, r = 2.5).
    got = build().amps
    with mpmath.workdps(40):
        ref = reference()
        norm = mpmath.sqrt(mpmath.fsum(abs(a) ** 2 for a in ref))
        err = [abs(mpmath.mpc(g) - a / norm) for g, a in zip(got, ref)]
        rel = [e / abs(a / norm) for e, a in zip(err, ref) if a != 0]
        worst_abs, worst_rel = float(max(err)), float(max(rel))
    assert worst_abs <= 2e-15
    assert worst_rel <= 1e-12


class TestTailAndCutoffHelpers:
    def test_vacuum_tail_is_zero(self):
        assert fo.tail_mass(fo.coherent_vector(0.0, 16)) == 0.0

    def test_two_mode_tail_sums_per_mode_bands(self):
        v = fo.two_mode_squeezed_vector(1.0, 0.0, 32)
        p = np.abs(dense_grid(v)) ** 2
        assert fo.tail_mass(v) == pytest.approx(p[-3:, :].sum() + p[:, -3:].sum())

    def test_measured_cutoff_table(self):
        # The doubling search from 32 lands on these cutoffs for a 1e-9
        # target; they anchor the runtime envelope of the verification suite.
        expected = {0.5: 32, 1.0: 128, 1.5: 256, 2.0: 1024, 2.5: 2048}
        for r, cut in expected.items():
            assert fo.fitted(lambda c: fo.squeezed_vacuum_vector(r, 0.0, c), 1e-9, 4096).cutoff == cut

    def test_coherent_cutoff_growth(self):
        assert fo.fitted(lambda c: fo.coherent_vector(0.5, c), 1e-9, 4096).cutoff == 32
        assert fo.fitted(lambda c: fo.coherent_vector(3.0, c), 1e-9, 4096).cutoff > 32

    def test_unreachable_target_raises(self):
        with pytest.raises(fo.TruncationError):
            fo.fitted(lambda c: fo.coherent_vector(3.0, c), 1e-12, 16)
        with pytest.raises(fo.TruncationError):
            fo.fitted(lambda c: fo.squeezed_vacuum_vector(2.5, 0.0, c), 1e-12, 64)

    def test_fitted_returns_the_measured_state(self):
        # The chooser hands back the very vector whose tail it judged, from
        # the first doubling of 32 that meets the target.
        built = []

        def build(cutoff):
            built.append(fo.squeezed_vacuum_vector(2.0, 0.3, cutoff))
            return built[-1]

        st = fo.fitted(build, 1e-12, 4096)
        assert [v.cutoff for v in built] == [32, 64, 128, 256, 512, 1024]
        assert st is built[-1]
        assert fo.tail_mass(built[-2]) > 1e-12 >= fo.tail_mass(st)


# ---------------------------------------------------------------------------
# Batched cutoff choice
# ---------------------------------------------------------------------------

# Squeezes from 0 to 2.5 need every doubling cutoff from 32 to 4096 at the
# verification target 1e-12; shuffled, so blocks retire rows out of order.
_R = np.random.default_rng(3).permutation(np.linspace(0.0, 2.5, 24))
_PHASE = np.linspace(0.3, 5.9, 24)


def squeezed_cat(r, eta, cutoff):
    """N(|r> + eta |-r>), one state per row of ``r`` and ``eta``."""
    plus, minus = fo.squeezed_vacuum_vector(r, 0.0, cutoff), fo.squeezed_vacuum_vector(r, math.pi, cutoff)
    return fo.superpose([(1.0, plus), (eta, minus)])


_BATCH_FAMILIES = {
    "superposed-squeezed": lambda r, phase, cut: squeezed_cat(r, 0.8 * np.exp(1j * phase), cut),
    "zhang": zhang_state,
}


@pytest.mark.parametrize("family", _BATCH_FAMILIES)
def test_batched_fits_match_batch_of_one_bit_for_bit(family):
    build = _BATCH_FAMILIES[family]
    found = list(fo.fits(lambda cut, rows: build(_R[rows], _PHASE[rows], cut), _R.size, 1e-12, 4096))
    assert sorted(np.concatenate([fit.rows for fit in found]).tolist()) == list(range(_R.size))
    assert {fit.state.cutoff for fit in found} == {32, 64, 128, 256, 512, 1024, 2048, 4096}
    for fit in found:
        batch = fo.two_mode_moments(fit.state)
        for j, row in enumerate(fit.rows):
            one = fo.fitted(lambda cut: build(_R[row], _PHASE[row], cut), 1e-12, 4096)
            assert one.cutoff == fit.state.cutoff
            for field in dataclasses.fields(one):  # the amplitudes, and a product sum's weights
                assert np.array_equal(getattr(one, field.name), getattr(fit.state, field.name)[j]), field.name
            single = fo.two_mode_moments(one)
            for name in ("n1", "n2", "a2", "b2", "adag_b", "ab"):
                assert getattr(single, name) == np.asarray(getattr(batch, name))[j], name
            assert fo.tail_mass(one) == fit.tail[j]


def test_fits_steps_unresolved_rows_through_the_cutoffs_in_lockstep():
    # Every row is built at 32; each later cutoff builds exactly the rows the
    # one before left unresolved, in blocks of at most BLOCK_AMPS amplitudes.
    calls = []

    def build(cut, rows):
        calls.append((cut, rows.tolist()))
        return zhang_state(_R[rows], _PHASE[rows], cut)

    found = list(fo.fits(build, _R.size, 1e-12, 4096))
    built: dict[int, list[int]] = {}
    for cut, rows in calls:
        assert len(rows) == 1 or len(rows) * (cut + 1) <= fo.BLOCK_AMPS
        built.setdefault(cut, []).extend(rows)
        assert len(built[cut]) == len(set(built[cut]))
    retired: dict[int, set[int]] = {}
    for fit in found:
        retired.setdefault(fit.state.cutoff, set()).update(fit.rows.tolist())
    pending = set(range(_R.size))
    for cut in sorted(built):
        assert set(built[cut]) == pending
        pending -= retired.get(cut, set())
    assert not pending


def test_fits_raises_when_any_row_misses_the_target_under_the_cap():
    # r = 2.5 needs cutoff 4096; the other rows would be done by 1024.
    r = np.array([0.2, 1.0, 2.5, 0.5])
    with pytest.raises(fo.TruncationError):
        list(fo.fits(lambda cut, rows: zhang_state(r[rows], 1.3, cut), r.size, 1e-12, 2048))


def test_shared_factors_are_stored_once():
    # Factors that are the same object in both modes sit on a mode axis of
    # length 1; equal factors that are distinct objects are stored twice.
    st = zhang_state(np.array([0.4, 1.1]), 0.7, 64)
    assert st.amps.shape == (2, 1, 2, 65) and st.amps.base is None
    assert st.rows(np.array([False, True])).amps.shape == (1, 1, 2, 65)
    alpha = np.array([0.5, 0.8])
    twice = fo.superpose_two_mode([(1.0, fo.coherent_vector(alpha, 16), fo.coherent_vector(alpha, 16))])
    assert twice.amps.shape == (2, 2, 1, 17)
    assert twice.rows(np.array([False, True])).amps.shape == (1, 2, 1, 17)


def test_factors_stored_once_read_as_stored_twice():
    # One zhang-like product sum, its factors stored once (u is v) and twice
    # (equal copies): every reading, and every reading of its rows under a
    # mask, is bit for bit the same.
    r, theta = np.array([0.3, 0.9, 1.4, 2.0]), np.array([0.2, 1.1, 2.5, 3.0])
    minus, plus = fo.squeezed_vacuum_vector(r, math.pi, 256), fo.squeezed_vacuum_vector(r, 0.0, 256)
    copy = [fo.FockVector(f.amps.copy()) for f in (minus, plus)]
    once = fo.superpose_two_mode([(1.0, minus, minus), (np.exp(1j * theta), plus, plus)])
    twice = fo.superpose_two_mode([(1.0, minus, copy[0]), (np.exp(1j * theta), plus, copy[1])])
    assert once.amps.shape == (4, 1, 2, 257) and twice.amps.shape == (4, 2, 2, 257)
    mask = np.array([True, False, True, True])
    for a, b in [(once, twice), (once.rows(mask), twice.rows(mask))]:
        assert np.array_equal(a.weights, b.weights)
        ma, mb = fo.two_mode_moments(a), fo.two_mode_moments(b)
        for name in ("n1", "n2", "a2", "b2", "adag_b", "ab"):
            assert np.array_equal(getattr(ma, name), getattr(mb, name)), name
        assert np.array_equal(fo.tail_mass(a), fo.tail_mass(b))
