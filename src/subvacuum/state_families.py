"""Closed-form quadratic moments for the quantum states under study.

Each family maps a small parameter record to the moments that fix the mode's
energy density: the occupation number together with the magnitude and phase
of every non-vanishing quadratic ladder expectation.  Single-mode families
produce :class:`OneModeMoments`; entangled families produce
:class:`TwoModeMoments`.

Every closed form is written once, over numpy arrays.  Record fields may be
arrays that broadcast to one batch shape, and every moment comes back with
that shape; a scalar call is a batch of one and returns numpy scalars.  A
batch never raises for one bad row: a row whose normalization vanishes is
flagged in ``degenerate``, and a row that overflows comes back non-finite.
The closed forms evaluate under ``np.errstate(all="ignore")``, so neither
prints a numpy warning; callers check the flag and finiteness.

All expressions here are cross-checked against the truncated number-basis
evaluation in :mod:`subvacuum.fock_oracle`; the test suite pins that
agreement to near machine precision.  Where a published expression failed
that cross-check, the moments shipped here are the oracle-confirmed variant
(see the verification report for the side-by-side residuals).

:data:`REGISTRY` describes every family once, by its command-line name:
parameter keys, defaults and domain, the closed-form call and its
normalization denominator, the sweep columns and two-mode lift, and the
boxes the search may explore.  The command line, the optimizer and
verification all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

__all__ = [
    "DegenerateStateError",
    "OneModeMoments",
    "TwoModeMoments",
    "CoherentPair",
    "SqueezedPair",
    "CoherentSqueezed",
    "VacuumSqueezed",
    "BarnettRadmore",
    "ZhangReal",
    "EntangledCoherent",
    "wrap_angle",
    "regular",
    "coherent_superposition_moments",
    "squeezed_vacuum_moments",
    "superposed_squeezed_moments",
    "coherent_plus_squeezed_moments",
    "vacuum_plus_squeezed_moments",
    "barnett_radmore_moments",
    "zhang_moments",
    "zhang_small_r_asymptotics",
    "entangled_coherent_moments",
    "f_sigma",
    "Family",
    "Layout",
    "SearchView",
    "REGISTRY",
    "SEARCHES",
]

#: Normalization denominators below this are treated as a degenerate state.
DEGENERATE_DENOMINATOR = 1e-13

#: Every closed form runs under this: overflow and degenerate rows give
#: non-finite values without numpy warnings, and callers check for them.
_quiet = np.errstate(all="ignore")


class DegenerateStateError(ValueError):
    """The requested superposition has (numerically) zero norm."""


def wrap_angle(x):
    """Reduce angles to the interval (-pi, pi]."""
    y = np.remainder(np.add(x, np.pi), 2.0 * np.pi) - np.pi
    return np.where(y <= -np.pi, np.pi, y)[()]


def _polar(z):
    """Magnitudes and wrapped phases; a magnitude below 1e-15 gets (0, 0) by convention."""
    mag = np.abs(z)
    small = mag < 1e-15
    return np.where(small, 0.0, mag), np.where(small, 0.0, wrap_angle(np.angle(z)))


def _rows(*values):
    """The broadcast shape of ``values``, then each value as an array of at least one row.

    A scalar call is thereby a batch of one: its values go through the same
    numpy ufunc loops as the rows of a longer batch, so a row's moments do
    not depend on the batch they are evaluated in.
    """
    return (np.broadcast_shapes(*map(np.shape, values)), *(np.atleast_1d(v) for v in values))


def _batch(params):
    """The batch shape of a parameter record, and the record with array fields."""
    shape, *values = _rows(*vars(params).values())
    return shape, type(params)(*values)


def _shaped(shape, values) -> list:
    """Each value broadcast to the batch ``shape``; a batch of one gives numpy scalars."""
    return [np.broadcast_to(v, shape or (1,)).reshape(shape)[()] for v in values]


def _normalization(denom):
    """1 / denom and the degenerate-row mask: the one place a degenerate row is marked.

    Rows with a denominator below ``DEGENERATE_DENOMINATOR`` get NaN in place
    of 1 / denom, so every normalized moment of theirs is NaN.
    """
    degenerate = denom < DEGENERATE_DENOMINATOR
    return np.where(degenerate, np.nan, 1.0 / denom), degenerate


def regular(m):
    """``m`` itself, or :class:`DegenerateStateError` if any of its rows is degenerate."""
    if np.any(m.degenerate):
        raise DegenerateStateError(f"degenerate state: normalization denominator below {DEGENERATE_DENOMINATOR:g}")
    return m


def _check_magnitude(x, what: str = "squeeze") -> None:
    if np.any(x < 0):
        raise ValueError(f"{what} magnitude must be non-negative")


@dataclass(frozen=True)
class OneModeMoments:
    """Single-mode moments: occupation, pair magnitude and phase, and F = R - n.

    ``pair_mag`` is |<a^2>| and ``pair_phase`` its argument in (-pi, pi];
    the occupation ``n`` is <a^dag a>.  ``excess`` is F = R - n as the
    closed form computes it.  Under squeezing both ``pair_mag`` and ``n``
    grow like e^{2r}/4, so their float64 difference keeps only a few digits
    of F at large r; every squeezed family therefore evaluates F from a
    closed form of F itself.  The coherent pair's moments stay small over
    its search box, and its ``excess`` is the plain difference.  Each field
    holds one value per row of the batch; ``degenerate`` marks the rows whose
    normalization vanished, where every normalized moment is NaN.
    """

    n: Any
    pair_mag: Any
    pair_phase: Any
    excess: Any
    degenerate: Any = False


@dataclass(frozen=True)
class TwoModeMoments:
    """Two-mode moments: occupations plus the four quadratic channels.

    Channels 1 and 2 are the single-mode pairs <a^2> and <b^2>; channel 3 is
    the beam-splitter moment <a^dag b>; channel 4 the pair-creation moment
    <a b>.  Each is stored as (magnitude, phase in (-pi, pi]).  Fields and
    ``degenerate`` are per row, as in :class:`OneModeMoments`.
    """

    n1: Any
    n2: Any
    R1: Any
    R2: Any
    R3: Any
    R4: Any
    gamma1: Any
    gamma2: Any
    gamma3: Any
    gamma4: Any
    degenerate: Any = False


def _one_mode(shape, n, pair, excess=None, degenerate=False) -> OneModeMoments:
    """Moments from the occupation, the complex pair moment and the excess
    (by default the plain difference pair_mag - n)."""
    mag, phase = _polar(pair)
    excess = mag - n if excess is None else excess
    return OneModeMoments(*_shaped(shape, (n, mag, phase, excess, degenerate)))


def _two_mode(shape, n, a2, b2, adag_b, ab, degenerate=False) -> TwoModeMoments:
    """Equal occupations ``n`` and the four channels as complex moments."""
    (R1, g1), (R2, g2), (R3, g3), (R4, g4) = map(_polar, (a2, b2, adag_b, ab))
    return TwoModeMoments(*_shaped(shape, (n, n, R1, R2, R3, R4, g1, g2, g3, g4, degenerate)))


# --------------------------------------------------------------------------
# Parameter records.  One frozen dataclass per family: the closed-form
# arguments that REGISTRY builds.  Fields may be arrays (one entry per row).
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CoherentPair:
    """Superposition of two coherent states, |alpha> + eta |beta>."""

    alpha: complex
    beta: complex
    eta: complex


@dataclass(frozen=True)
class SqueezedPair:
    """Superposition of opposite squeezed vacua along the real axis.

    The state is |r> + eta |-r| built from squeeze phases 0 and pi; ``r``
    must be non-negative.
    """

    r: float
    eta: complex


@dataclass(frozen=True)
class CoherentSqueezed:
    """Squeezed vacuum plus a coherent state: |r, delta> + eta |alpha>."""

    r: float
    delta: float
    alpha: complex
    eta: complex


@dataclass(frozen=True)
class VacuumSqueezed:
    """Squeezed vacuum (phase 0) plus the vacuum: |r> + eta |0>."""

    r: float
    eta: complex


@dataclass(frozen=True)
class BarnettRadmore:
    """Two-mode squeezed vacuum with magnitude ``r`` and phase ``delta``."""

    r: float
    delta: float


@dataclass(frozen=True)
class ZhangReal:
    """Phase superposition of doubly-squeezed vacua with relative phase theta.

    Both modes carry the same real squeeze magnitude ``r``; the two branches
    squeeze along opposite axes.
    """

    r: float
    theta: float


@dataclass(frozen=True)
class EntangledCoherent:
    """Entangled coherent state built from amplitudes sigma e^{i delta_k}.

    The two branches carry opposite signs and a relative phase theta.
    """

    sigma: float
    theta: float
    delta1: float
    delta2: float


# --------------------------------------------------------------------------
# Single-mode families
# --------------------------------------------------------------------------


def _coherent_pair_norm(params: CoherentPair):
    """Normalization denominator of |alpha> + eta |beta>, and <alpha|beta>."""
    alpha, beta, eta = params.alpha, params.beta, params.eta
    ov = np.exp(-(np.abs(alpha) ** 2 + np.abs(beta) ** 2) / 2.0 + np.conj(alpha) * beta)
    return 1.0 + np.abs(eta) ** 2 + 2.0 * (eta * ov).real, ov


@_quiet
def coherent_superposition_moments(params: CoherentPair) -> OneModeMoments:
    """Moments of N(|alpha> + eta |beta>).

    The overlap <alpha|beta> = exp(-|alpha|^2/2 - |beta|^2/2 + conj(alpha) beta)
    weights every cross term.  Rows where the two branches cancel are
    flagged degenerate.
    """
    shape, params = _batch(params)
    alpha, beta, eta = params.alpha, params.beta, params.eta
    denom, ov = _coherent_pair_norm(params)
    norm2, degenerate = _normalization(denom)
    n = norm2 * (
        np.abs(alpha) ** 2
        + np.abs(eta * beta) ** 2
        + 2.0 * (eta * np.conj(alpha) * beta * ov).real
    )
    pair = norm2 * (
        alpha**2
        + np.abs(eta) ** 2 * beta**2
        + eta * beta**2 * ov
        + np.conj(eta) * alpha**2 * np.conj(ov)
    )
    return _one_mode(shape, n, pair, degenerate=degenerate)


@_quiet
def squeezed_vacuum_moments(r, delta) -> OneModeMoments:
    """Moments of a single squeezed vacuum: n = sinh^2 r, |<a^2>| = sinh r cosh r.

    The excess sinh r cosh r - sinh^2 r = (1 - e^{-2r}) / 2 is evaluated as
    -expm1(-2r) / 2, which keeps full precision at every r.
    """
    shape, r, delta = _rows(r, delta)
    _check_magnitude(r)
    s, c = np.sinh(r), np.cosh(r)
    return _one_mode(shape, s * s, -np.exp(1j * delta) * s * c, -np.expm1(-2.0 * r) / 2.0)


def _superposed_squeezed_norm(params: SqueezedPair):
    """Normalization denominator of |r> + eta |-r>, and cosh 2r."""
    c2 = np.cosh(2.0 * params.r)
    ov = 1.0 / np.sqrt(c2)
    return 1.0 + np.abs(params.eta) ** 2 + 2.0 * params.eta.real * ov, c2


@_quiet
def superposed_squeezed_moments(params: SqueezedPair) -> OneModeMoments:
    """Moments of N(|r> + eta |-r>) for opposite real squeeze axes.

    The branch overlap is 1/sqrt(cosh 2r); cross moments pick up the factor
    (sech 2r)^{3/2} relative to the diagonal ones.  The excess is written
    around the |r> branch's own squeezed vacuum, so it does not cancel.
    """
    shape, params = _batch(params)
    r, eta = params.r, params.eta
    _check_magnitude(r)
    s, c = np.sinh(r), np.cosh(r)
    denom, c2 = _superposed_squeezed_norm(params)
    norm2, degenerate = _normalization(denom)
    weight = np.abs(eta) ** 2
    cross_n = s * s / c2**1.5
    cross_pair = s * c / c2**1.5
    n = norm2 * (s * s * (1.0 + weight) - 2.0 * eta.real * cross_n)
    pair = norm2 * ((weight - 1.0) * s * c + 2j * eta.imag * cross_pair)
    rest = weight * s * c + 2j * eta.imag * cross_pair
    excess = _squeezed_excess(r, -s * c, rest, weight * s * s - 2.0 * eta.real * cross_n, norm2)
    return _one_mode(shape, n, pair, excess, degenerate)


def _squeezed_excess(r, sq, rest, rest_n, norm2):
    """F = R - n of a squeezed vacuum superposed with another state.

    The unnormalized pair moment is sq + rest, where sq = -sinh r cosh r
    e^{i delta} is the squeezed vacuum's own, and the unnormalized occupation
    is sinh^2 r + rest_n.  F / norm2 = (|sq + rest| - |sq|)
    + (sinh r cosh r - sinh^2 r) - rest_n, where the first difference is
    evaluated as (2 Re(conj(sq) rest) + |rest|^2) / (|sq + rest| + |sq|) and
    the second as -expm1(-2r)/2, so neither cancels as e^{2r} grows.
    """
    total = np.abs(sq + rest) + np.abs(sq)
    gain = np.where(total > 0, (2.0 * (np.conj(sq) * rest).real + np.abs(rest) ** 2) / total, 0.0)
    return norm2 * (gain - np.expm1(-2.0 * r) / 2.0 - rest_n)


def _coherent_squeezed_norm(params: CoherentSqueezed):
    """Normalization denominator of |r, delta> + eta |alpha>, the overlap
    <r, delta|alpha> and its factors gauss, root_sech, twist."""
    r, delta, alpha, eta = params.r, params.delta, params.alpha, params.eta
    root_sech = np.sqrt(1.0 / np.cosh(r))
    gauss = np.exp(-np.abs(alpha) ** 2 / 2.0)
    twist = np.exp(-0.5 * np.exp(-1j * delta) * alpha**2 * np.tanh(r))
    ov = gauss * root_sech * twist
    return 1.0 + np.abs(eta) ** 2 + 2.0 * (eta * ov).real, ov, gauss, root_sech, twist


@_quiet
def coherent_plus_squeezed_moments(params: CoherentSqueezed) -> OneModeMoments:
    """Moments of N(|r, delta> + eta |alpha>).

    The squeezed-coherent overlap is
    sqrt(sech r) exp(-|alpha|^2/2) exp(-e^{-i delta} alpha^2 tanh(r)/2),
    and the mixed ladder moments carry one extra tanh(r) per pair index.
    """
    shape, params = _batch(params)
    r, delta, alpha, eta = params.r, params.delta, params.alpha, params.eta
    _check_magnitude(r)
    s, c, t = np.sinh(r), np.cosh(r), np.tanh(r)
    denom, ov, gauss, root_sech, twist = _coherent_squeezed_norm(params)
    norm2, degenerate = _normalization(denom)
    rotor = np.exp(1j * delta)
    occ = np.abs(eta * alpha) ** 2
    occ_cross = 2.0 * gauss * root_sech * t * (eta * np.exp(-1j * delta) * alpha**2 * twist).real
    n = norm2 * (s * s + occ - occ_cross)
    sq = -s * c * rotor
    coherent = np.abs(eta) ** 2 * alpha**2
    cross = eta * alpha**2 * ov
    cross_sq = np.conj(eta) * gauss * root_sech * (np.conj(alpha) ** 2 * rotor * t - 1.0) * rotor * t * np.conj(twist)
    pair = norm2 * (sq + coherent + cross + cross_sq)
    excess = _squeezed_excess(r, sq, coherent + cross + cross_sq, occ - occ_cross, norm2)
    return _one_mode(shape, n, pair, excess, degenerate)


def _vacuum_squeezed_norm(params: VacuumSqueezed):
    """Normalization denominator of |r> + eta |0>, and log cosh r.

    1 + |eta|^2 + 2 Re eta sqrt(sech r) is evaluated as |1 + eta|^2
    + 2 Re eta (sqrt(sech r) - 1), with sqrt(sech r) - 1 =
    expm1(-log cosh r / 2) and log cosh r = log1p(2 sinh^2(r/2)), so it does
    not cancel as eta -> -1, r -> 0.
    """
    eta = params.eta
    log_cosh = np.log1p(2.0 * np.sinh(0.5 * params.r) ** 2)
    return np.abs(1.0 + eta) ** 2 + 2.0 * eta.real * np.expm1(-0.5 * log_cosh), log_cosh


@_quiet
def vacuum_plus_squeezed_moments(params: VacuumSqueezed) -> OneModeMoments:
    """Moments of N(|r> + eta |0>).

    The pair moment is -sinh r cosh r P / denom with the pair factor
    P = 1 + conj(eta) sech^{5/2} r, evaluated as (1 + conj eta)
    + conj(eta) (sech^{5/2} r - 1).  F = sinh r (cosh r |P| - sinh r) / denom
    is evaluated as sinh r (1 + |eta|^2 (sech^3 r - 1) / denom) /
    (cosh r |P| + sinh r), which cancels neither at large r nor near the
    singular corner eta -> -1, r -> 0.  At that corner the normalized state
    tends to the two-photon ket, so rows there get that limit (n = 2,
    vanishing pair moment, excess pair_mag - n = -2) and are not degenerate.
    """
    shape, params = _batch(params)
    r, eta = params.r, params.eta
    _check_magnitude(r)
    s, c = np.sinh(r), np.cosh(r)
    denom, log_cosh = _vacuum_squeezed_norm(params)
    corner = denom < DEGENERATE_DENOMINATOR
    norm2 = 1.0 / denom
    w = np.conj(eta)
    factor = (1.0 + w) + w * np.expm1(-2.5 * log_cosh)
    excess = s * (1.0 + norm2 * np.abs(w) ** 2 * np.expm1(-3.0 * log_cosh)) / (c * np.abs(factor) + s)
    return _one_mode(
        shape,
        np.where(corner, 2.0, norm2 * s * s),
        np.where(corner, 0.0, -norm2 * s * c * factor),
        np.where(corner, -2.0, excess),
    )


# --------------------------------------------------------------------------
# Two-mode families
# --------------------------------------------------------------------------


@_quiet
def barnett_radmore_moments(params: BarnettRadmore) -> TwoModeMoments:
    """Two-mode squeezed vacuum: equal occupations, pair-creation channel only."""
    shape, params = _batch(params)
    _check_magnitude(params.r)
    s, c = np.sinh(params.r), np.cosh(params.r)
    return _two_mode(shape, s * s, 0.0, 0.0, 0.0, -np.exp(1j * params.delta) * s * c)


def _zhang_norm(params: ZhangReal):
    """Normalization denominator of the phase-superposed pair, and cosh 2r."""
    c2 = np.cosh(2.0 * params.r)
    return 2.0 * (1.0 + np.cos(params.theta) / c2), c2


@_quiet
def zhang_moments(params: ZhangReal) -> TwoModeMoments:
    """Phase-superposed doubly-squeezed vacua; only the single-mode pairs survive.

    Degenerate normalization (theta = pi at r = 0) flags the row.
    """
    shape, params = _batch(params)
    r, theta = params.r, params.theta
    _check_magnitude(r)
    s = np.sinh(r)
    denom, c2 = _zhang_norm(params)
    norm2, degenerate = _normalization(denom)
    n = 2.0 * norm2 * s * s * (1.0 - np.cos(theta) / c2**2)
    pair = -1j * norm2 * np.sin(theta) * np.sinh(2.0 * r) / c2**2
    return _two_mode(shape, n, pair, pair, 0.0, 0.0, degenerate)


def zhang_small_r_asymptotics(theta: float) -> tuple[float, float]:
    """Leading small-squeeze coefficients (c_n, c_R) for the phase-superposed pair.

    The occupation behaves as c_n r^2 and the pair magnitude as c_R r with

        c_n = (1 - cos theta) / (1 + cos theta) = tan^2(theta/2),
        c_R = |sin theta| / (1 + cos theta) = |tan(theta/2)|.

    The half-angle forms are the ones evaluated: near theta = pi they avoid
    the cancellation in 1 + cos theta.  The expansion holds while
    r^2 << 1 + cos theta; at larger r the neglected 2 r^2 term of the exact
    denominator 1 + cos(theta) / cosh 2r takes over.

    At leading order the gain c_R r - c_n r^2 peaks at
    r* = c_R / (2 c_n) = cot(theta/2) / 2, with gain c_R^2 / (4 c_n) = 1/4 and
    occupation c_n r*^2 = 1/4 for every theta.  At r* itself 2 r*^2 is
    (1 + cos theta) / (4 sin^2(theta/2)), about a quarter of 1 + cos theta
    near pi, so the exact peak is lower and sits at smaller r: it tends to
    (sqrt 2 - 1)/2 = 0.2071 with n1 = (2 - sqrt 2)/4 = 0.146 as theta -> pi.

    theta = pi makes both coefficients diverge and raises ZeroDivisionError.
    """
    half_cos = np.cos(0.5 * theta)
    if 2.0 * half_cos * half_cos < 1e-15:
        raise ZeroDivisionError("asymptotic coefficients diverge at theta = pi")
    c_r = abs(np.sin(0.5 * theta) / half_cos)
    return float(c_r * c_r), float(c_r)


def _entangled_coherent_norm(params: EntangledCoherent):
    """Normalization denominator of the entangled coherent state, and e^{-4 sigma^2}."""
    overlap4 = np.exp(-4.0 * params.sigma**2)
    return 2.0 * (1.0 + np.cos(params.theta) * overlap4), overlap4


@_quiet
def entangled_coherent_moments(params: EntangledCoherent) -> TwoModeMoments:
    """Moments of N(|alpha, beta> + e^{i theta} |-alpha, -beta>).

    Amplitudes are alpha = sigma e^{i delta1}, beta = sigma e^{i delta2}.
    Because both branches are eigenstates of a^2, b^2 and ab, those channels
    keep their bare coherent values; only the occupations and the
    beam-splitter channel feel the superposition.  sigma = 0 with theta = pi
    is degenerate.
    """
    shape, params = _batch(params)
    sigma, theta = params.sigma, params.theta
    _check_magnitude(sigma, "coherent")
    alpha = sigma * np.exp(1j * params.delta1)
    beta = sigma * np.exp(1j * params.delta2)
    denom, overlap4 = _entangled_coherent_norm(params)
    norm2, degenerate = _normalization(denom)
    n = 2.0 * norm2 * sigma**2 * (1.0 - np.cos(theta) * overlap4)
    beam = 2.0 * norm2 * np.conj(alpha) * beta * (1.0 - np.cos(theta) * overlap4)
    return _two_mode(shape, n, alpha**2, beta**2, beam, alpha * beta, degenerate)


@_quiet
def f_sigma(sigma):
    """Depth profile of the aligned entangled-coherent minimum.

    f(sigma) = sigma^2 e^{-2 sigma^2} (1 + e^{-2 sigma^2}) / (1 + e^{-4 sigma^2});
    the deepest aligned minimum is -4 omega f(sigma) in natural units.
    """
    shape, sigma = _rows(sigma)
    e2 = np.exp(-2.0 * sigma**2)
    return _shaped(shape, [sigma**2 * e2 * (1.0 + e2) / (1.0 + e2 * e2)])[0]


# --------------------------------------------------------------------------
# Family registry: one entry per command-line family name.
# --------------------------------------------------------------------------

TWO_PI = 2.0 * math.pi


def _phased(mag, phase):
    return mag * np.exp(1j * phase)


@dataclass(frozen=True)
class Layout:
    """How a family's moments become sweep cells and a two-mode density input.

    ``cells`` gives the values under ``columns``; ``lift`` embeds the moments
    in a two-mode grid (``None``: the family has no spatial density).
    """

    columns: tuple[str, ...]
    cells: Callable[[Any], tuple]
    lift: Callable[[Any], TwoModeMoments] | None


ONE_MODE = Layout(
    columns=("n", "R", "F"),
    cells=lambda m: (m.n, m.pair_mag, m.excess),
    # one-mode states occupy mode 1; mode 2 stays empty
    lift=lambda m: TwoModeMoments(m.n, 0.0, m.pair_mag, 0.0, 0.0, 0.0, m.pair_phase, 0.0, 0.0, 0.0, m.degenerate),
)
TWO_MODE = Layout(
    columns=("n1", "n2", "R1", "R2", "R3", "R4", "F"),
    cells=lambda m: (m.n1, m.n2, m.R1, m.R2, m.R3, m.R4, m.R1 - m.n1),
    lift=lambda m: m,
)
SCALAR = Layout(columns=("f",), cells=lambda m: (m,), lift=None)


@dataclass(frozen=True)
class SearchView:
    """A box over free coordinates of a one-mode family, for the multi-start search.

    ``moments_of`` maps a coordinate vector, or an array with one vector per
    row, to the family's moments (one row each).
    ``angular`` marks coordinates living on the circle: they are wrapped
    modulo 2 pi rather than clipped, and differenced on the circle.
    ``canonical`` (optional) maps a coordinate vector to a symmetry-reduced
    representative before clustering.
    """

    names: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    angular: tuple[bool, ...]
    moments_of: Callable[[np.ndarray], OneModeMoments]
    canonical: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        k = len(self.names)
        if not (len(self.lower) == len(self.upper) == len(self.angular) == k and k > 0):
            raise ValueError("names, bounds and angular flags must align and be non-empty")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("lower bounds must not exceed upper bounds")

    @property
    def dim(self) -> int:
        return len(self.names)

    def clamp(self, params: np.ndarray) -> np.ndarray:
        """Wrap angular coordinates, clip the rest into the box (row-wise for an array of points)."""
        q = np.asarray(params, dtype=float)
        return np.where(self.angular, np.remainder(q, TWO_PI), np.clip(q, self.lower, self.upper))


@dataclass(frozen=True)
class Family:
    """One state family as the command line, the search and verification see it.

    ``defaults`` holds the parameter keys in order; ``domain`` maps bounded
    keys to their inclusive lower bound.  ``record`` turns parameters (numbers,
    or arrays with one entry per row) into the argument of ``moments``, the
    closed-form call, which looks its closed form up by module-level name on
    every call so that rebinding that name reaches every caller.  ``norm`` is
    the helper the closed form takes its normalization denominator from
    (first element of its result).
    ``searches`` names the boxes the optimizer may explore.
    """

    defaults: Mapping[str, float]
    layout: Layout
    moments: Callable[[Any], Any]
    record: Callable[[Mapping[str, float]], Any] = lambda params: params
    domain: Mapping[str, float] = field(default_factory=dict)
    norm: Callable[[Any], tuple] | None = None
    searches: Mapping[str, SearchView] = field(default_factory=dict)

    def denominator(self, record: Any) -> float:
        """Normalization denominator of a superposition family's record."""
        return self.norm(record)[0]


def _canonical_pair(p: np.ndarray) -> np.ndarray:
    """Reduce the coherent-pair (alpha, beta, eta, delta2, delta) symmetry.

    The state is unchanged under (alpha, beta, eta) -> (beta, alpha, 1/eta)
    followed by a global phase rotation restoring a real first amplitude,
    which maps the phase coordinates to their negatives.  Representatives
    keep alpha <= beta; when the first amplitude is (numerically) zero its
    phase is meaningless and delta2 is zeroed.
    """
    a, b, h, d2, d = (float(v) for v in p)
    if a > b + 1e-12 and h > 1e-9:
        a, b, h, d2, d = b, a, 1.0 / h, -d2, -d
    if a <= 0.01:
        d2 = 0.0
    return np.array([a, b, h, np.remainder(d2, TWO_PI), np.remainder(d, TWO_PI)])


REGISTRY: dict[str, Family] = {
    "coherent-pair": Family(
        defaults={"alpha": 0.8, "delta1": 0.0, "beta": 0.8, "delta2": math.pi, "eta": 1.0, "delta": 0.0},
        layout=ONE_MODE,
        record=lambda p: CoherentPair(
            _phased(p["alpha"], p["delta1"]), _phased(p["beta"], p["delta2"]), _phased(p["eta"], p["delta"])
        ),
        moments=lambda params: coherent_superposition_moments(params),
        norm=_coherent_pair_norm,
        searches={
            # The first amplitude's phase is pinned to zero: a global phase
            # rotation makes it redundant.
            "coherent-pair": SearchView(
                names=("alpha", "beta", "eta", "delta2", "delta"),
                lower=(0.0, 0.0, 0.0, 0.0, 0.0),
                upper=(3.0, 3.0, 4.0, TWO_PI, TWO_PI),
                angular=(False, False, False, True, True),
                moments_of=lambda p: coherent_superposition_moments(
                    CoherentPair(p[..., 0], p[..., 1] * np.exp(1j * p[..., 3]), p[..., 2] * np.exp(1j * p[..., 4]))
                ),
                canonical=_canonical_pair,
            ),
            # Unpinned, so the flatness of that direction can be tested.
            "coherent-pair-free": SearchView(
                names=("alpha", "beta", "eta", "delta1", "delta2", "delta"),
                lower=(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                upper=(3.0, 3.0, 4.0, TWO_PI, TWO_PI, TWO_PI),
                angular=(False, False, False, True, True, True),
                moments_of=lambda p: coherent_superposition_moments(
                    CoherentPair(*(p[..., k] * np.exp(1j * p[..., k + 3]) for k in range(3)))
                ),
            ),
        },
    ),
    "squeezed-vacuum": Family(
        defaults={"r": 1.0, "delta": 0.0},
        layout=ONE_MODE,
        moments=lambda p: squeezed_vacuum_moments(p["r"], p["delta"]),
        domain={"r": 0.0},
    ),
    "superposed-squeezed": Family(
        defaults={"r": 1.0, "eta": 0.0, "eta_phase": 0.0},
        layout=ONE_MODE,
        record=lambda p: SqueezedPair(r=p["r"], eta=_phased(p["eta"], p["eta_phase"])),
        moments=lambda params: superposed_squeezed_moments(params),
        domain={"r": 0.0},
        norm=_superposed_squeezed_norm,
    ),
    "coherent-squeezed": Family(
        defaults={"r": 1.0, "delta": 0.0, "alpha": 0.6, "alpha_phase": 0.0, "eta": 1.0, "eta_phase": 0.0},
        layout=ONE_MODE,
        record=lambda p: CoherentSqueezed(
            p["r"], p["delta"], _phased(p["alpha"], p["alpha_phase"]), _phased(p["eta"], p["eta_phase"])
        ),
        moments=lambda params: coherent_plus_squeezed_moments(params),
        domain={"r": 0.0},
        norm=_coherent_squeezed_norm,
    ),
    "vacuum-squeezed": Family(
        defaults={"r": 1.0, "eta": -1.0, "eta_phase": 0.0},
        layout=ONE_MODE,
        record=lambda p: VacuumSqueezed(r=p["r"], eta=_phased(p["eta"], p["eta_phase"])),
        moments=lambda params: vacuum_plus_squeezed_moments(params),
        domain={"r": 0.0},
        norm=_vacuum_squeezed_norm,
        searches={
            # the r axis at eta = -1
            "vacuum-squeezed": SearchView(
                ("r",), (0.0,), (3.0,), (False,),
                lambda p: vacuum_plus_squeezed_moments(VacuumSqueezed(r=p[..., 0], eta=-1.0 + 0.0j)),
            ),
        },
    ),
    "barnett-radmore": Family(
        defaults={"r": 1.0, "delta": 0.0},
        layout=TWO_MODE,
        record=lambda p: BarnettRadmore(**p),
        moments=lambda params: barnett_radmore_moments(params),
        domain={"r": 0.0},
    ),
    "zhang": Family(
        defaults={"r": 0.007, "theta": 0.99 * math.pi},
        layout=TWO_MODE,
        record=lambda p: ZhangReal(**p),
        moments=lambda params: zhang_moments(params),
        domain={"r": 0.0},
        norm=_zhang_norm,
    ),
    "entangled-coherent": Family(
        defaults={"sigma": 0.7, "theta": 0.0, "delta1": 0.0, "delta2": 0.0},
        layout=TWO_MODE,
        record=lambda p: EntangledCoherent(**p),
        moments=lambda params: entangled_coherent_moments(params),
        domain={"sigma": 0.0},
        norm=_entangled_coherent_norm,
    ),
    "ecs-f": Family(defaults={"sigma": 0.7}, layout=SCALAR, moments=lambda p: f_sigma(p["sigma"])),
    "vacuum": Family(defaults={}, layout=TWO_MODE, moments=lambda p: TwoModeMoments(0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
}

#: Search view name -> (family name, view), in registry order.
SEARCHES: dict[str, tuple[str, SearchView]] = {
    view_name: (name, view) for name, family in REGISTRY.items() for view_name, view in family.searches.items()
}
