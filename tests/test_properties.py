"""Property-based invariants tying the closed forms to first principles.

Cauchy-Schwarz bounds every pair moment by the occupations, which in turn
caps the excess F = R - n below 1/2 for any state whatsoever; the closed
forms must inherit those bounds for every parameter draw, not just the
showcase points.
"""

import cmath
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from subvacuum import fock_oracle as oracle
from subvacuum.state_families import (
    barnett_radmore_moments,
    coherent_plus_squeezed_moments,
    coherent_superposition_moments,
    entangled_coherent_moments,
    squeezed_vacuum_moments,
    superposed_squeezed_moments,
    wrap_angle,
    zhang_moments,
)
from subvacuum.energy_density import ModeGeometry, rho_min_one_mode, spacetime_average

CS_SLACK = 1e-9

finite_angle = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
phase = st.floats(min_value=0.0, max_value=2.0 * math.pi)
squeeze = st.floats(min_value=0.0, max_value=1.5)
amplitude = st.floats(min_value=0.0, max_value=1.5)
weight = st.floats(min_value=0.0, max_value=2.0)


@st.composite
def complex_polar(draw, mag):
    return draw(mag) * cmath.exp(1j * draw(phase))


def assert_one_mode_bounds(m):
    assert m.n1 >= -1e-12
    assert m.R1 >= 0.0
    assert -math.pi < m.gamma1 <= math.pi
    assert m.R1 <= math.sqrt(m.n1 * (m.n1 + 1.0)) + CS_SLACK
    assert m.R1 - m.n1 <= 0.5 + CS_SLACK


def assert_two_mode_bounds(m):
    assert m.n1 >= -1e-12 and m.n2 >= -1e-12
    assert m.R1 <= math.sqrt(m.n1 * (m.n1 + 1.0)) + CS_SLACK
    assert m.R2 <= math.sqrt(m.n2 * (m.n2 + 1.0)) + CS_SLACK
    assert m.R3 <= math.sqrt(m.n1 * m.n2) + CS_SLACK
    assert m.R4 <= math.sqrt(m.n1 * (m.n2 + 1.0)) + CS_SLACK


@given(finite_angle)
def test_wrap_angle_lands_on_principal_branch(x):
    w = wrap_angle(x)
    assert -math.pi < w <= math.pi
    # Same point on the circle, up to the rounding incurred by the shift.
    assert abs(cmath.exp(1j * w) - cmath.exp(1j * x)) <= 1e-9 * max(1.0, abs(x))


@given(squeeze)
def test_squeezed_vacuum_bounds(r):
    assert_one_mode_bounds(squeezed_vacuum_moments(r, 0.0))


@given(complex_polar(amplitude), complex_polar(amplitude), complex_polar(weight))
def test_coherent_pair_bounds(alpha, beta, eta):
    m = coherent_superposition_moments(alpha=alpha, beta=beta, eta=eta)
    assume(not m.degenerate)
    assert_one_mode_bounds(m)


@given(squeeze, complex_polar(weight))
def test_superposed_squeezed_bounds(r, eta):
    m = superposed_squeezed_moments(r=r, eta=eta)
    assume(not m.degenerate)
    assert_one_mode_bounds(m)


@given(squeeze, phase, complex_polar(amplitude), complex_polar(weight))
def test_coherent_plus_squeezed_bounds(r, delta, alpha, eta):
    m = coherent_plus_squeezed_moments(r=r, delta=delta, alpha=alpha, eta=eta)
    assume(not m.degenerate)
    assert_one_mode_bounds(m)


@given(squeeze, complex_polar(weight))
def test_vacuum_plus_squeezed_bounds(r, eta):
    m = coherent_plus_squeezed_moments(r=r, delta=0.0, alpha=0.0, eta=eta)
    assume(not m.degenerate)
    assert_one_mode_bounds(m)


@given(squeeze, phase)
def test_barnett_radmore_bounds(r, delta):
    assert_two_mode_bounds(barnett_radmore_moments(r=r, delta=delta))


@given(st.floats(min_value=1e-3, max_value=1.5), phase)
def test_zhang_bounds(r, theta):
    m = zhang_moments(r=r, theta=theta)
    assume(not m.degenerate)
    assert_two_mode_bounds(m)


@given(amplitude, phase, phase, phase)
def test_entangled_coherent_bounds(sigma, theta, d1, d2):
    m = entangled_coherent_moments(sigma=sigma, theta=theta, delta1=d1, delta2=d2)
    assume(not m.degenerate)
    assert_two_mode_bounds(m)


@given(squeeze, complex_polar(weight), st.floats(min_value=0.1, max_value=5.0))
def test_one_mode_floor_never_beats_the_universal_bound(r, eta, omega):
    # F < 1/2 for every state, so no single mode can dip below -omega/2.
    m = coherent_plus_squeezed_moments(r=r, delta=0.0, alpha=0.0, eta=eta)
    assume(not m.degenerate)
    assert rho_min_one_mode(m, omega) >= -omega * (0.5 + CS_SLACK)


@given(
    squeeze,
    phase,
    st.floats(min_value=0.1, max_value=4.0),
    st.floats(min_value=0.1, max_value=4.0),
)
def test_spacetime_average_is_nonnegative(r, delta, w1, w2):
    m = barnett_radmore_moments(r=r, delta=delta)
    g = ModeGeometry("traveling", w1, w2)
    avg = spacetime_average(m, g)
    assert avg >= 0.0
    assert avg == m.n1 * w1 + m.n2 * w2


# ---------------------------------------------------------------------------
# Oracle-side invariants
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(complex_polar(amplitude))
def test_oracle_coherent_norm_and_occupation(alpha):
    vec = oracle.coherent_vector(alpha, 64)
    assert abs(oracle.inner(vec, vec) - 1.0) < 1e-12
    m = oracle.two_mode_moments(vec)
    assert abs(m.n1 - abs(alpha) ** 2) < 1e-10


@settings(max_examples=50, deadline=None)
@given(complex_polar(amplitude), complex_polar(amplitude), complex_polar(weight), phase)
def test_oracle_moments_ignore_global_phase(alpha, beta, eta, phi):
    terms = [
        (1.0, oracle.coherent_vector(alpha, 48)),
        (complex(eta), oracle.coherent_vector(beta, 48)),
    ]
    try:
        plain = oracle.superpose(terms)
    except oracle.DegenerateSuperpositionError:
        assume(False)
    twist = cmath.exp(1j * phi)
    rotated = oracle.superpose([(twist * c, v) for c, v in terms])
    mp = oracle.two_mode_moments(plain)
    mr = oracle.two_mode_moments(rotated)
    assert abs(mp.n1 - mr.n1) < 1e-12
    assert abs(mp.a2 - mr.a2) < 1e-12


@settings(max_examples=50, deadline=None)
@given(complex_polar(amplitude), squeeze, phase)
def test_oracle_overlap_obeys_cauchy_schwarz(alpha, r, delta):
    u = oracle.coherent_vector(alpha, 96)
    v = oracle.squeezed_vacuum_vector(r, delta, 96)
    assert abs(oracle.inner(u, v)) <= 1.0 + 1e-12


@settings(max_examples=30, deadline=None)
@given(complex_polar(amplitude), squeeze)
def test_oracle_one_mode_cauchy_schwarz(alpha, r):
    # |<a^2>| <= sqrt(n (n+1)) holds for the raw truncated vectors too.
    try:
        state = oracle.superpose(
            [
                (1.0, oracle.coherent_vector(alpha, 96)),
                (0.7, oracle.squeezed_vacuum_vector(r, 1.0, 96)),
            ]
        )
    except oracle.DegenerateSuperpositionError:
        assume(False)
    m = oracle.two_mode_moments(state)
    assert abs(m.a2) <= math.sqrt(m.n1 * (m.n1 + 1.0)) + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), phase)
def test_oracle_two_mode_pair_moment_saturates_cauchy_schwarz(r, delta):
    state = oracle.two_mode_squeezed_vector(r, delta, 64)
    m = oracle.two_mode_moments(state)
    bound = math.sqrt(m.n1.real * (m.n2.real + 1.0))
    assert abs(m.ab) <= bound + 1e-9
    # ... and the two-mode squeezed vacuum saturates it.
    assert abs(m.ab) >= bound - 1e-6


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.2), phase)
def test_oracle_matches_closed_form_under_hypothesis_driving(r, delta):
    m = oracle.two_mode_moments(oracle.fitted(lambda cut: oracle.squeezed_vacuum_vector(r, delta, cut), 1e-12, 512))
    cm = squeezed_vacuum_moments(r, delta)
    assert abs(m.n1 - cm.n1) < 1e-9
    assert abs(m.a2 - cm.R1 * np.exp(1j * cm.gamma1)) < 1e-9
