"""Closed-form quadratic moments for the quantum states under study.

Each family maps a small parameter record to the moments that fix the mode's
energy density: the occupation number together with the magnitude and phase
of every non-vanishing quadratic ladder expectation.  Single-mode families
produce :class:`OneModeMoments`; entangled families produce
:class:`TwoModeMoments`.

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


class DegenerateStateError(ValueError):
    """The requested superposition has (numerically) zero norm."""


def wrap_angle(x: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    y = float(np.remainder(x + np.pi, 2.0 * np.pi)) - np.pi
    return np.pi if y <= -np.pi else y


def _polar(z: complex) -> tuple[float, float]:
    """Magnitude and wrapped phase; zero magnitude gets phase 0 by convention."""
    mag = abs(z)
    if mag < 1e-15:
        return 0.0, 0.0
    return float(mag), wrap_angle(float(np.angle(z)))


@dataclass(frozen=True)
class OneModeMoments:
    """Single-mode moments: occupation, pair magnitude and phase, and F = R - n.

    ``pair_mag`` is |<a^2>| and ``pair_phase`` its argument in (-pi, pi];
    the occupation ``n`` is <a^dag a>.  ``excess`` is F = R - n as the
    closed form computes it.  Under squeezing both ``pair_mag`` and ``n``
    grow like e^{2r}/4, so their float64 difference keeps only a few digits
    of F at large r; every squeezed family therefore evaluates F from a
    closed form of F itself.  The coherent pair's moments stay small over
    its search box, and its ``excess`` is the plain difference.
    """

    n: float
    pair_mag: float
    pair_phase: float
    excess: float


@dataclass(frozen=True)
class TwoModeMoments:
    """Two-mode moments: occupations plus the four quadratic channels.

    Channels 1 and 2 are the single-mode pairs <a^2> and <b^2>; channel 3 is
    the beam-splitter moment <a^dag b>; channel 4 the pair-creation moment
    <a b>.  Each is stored as (magnitude, phase in (-pi, pi]).
    """

    n1: float
    n2: float
    R1: float
    R2: float
    R3: float
    R4: float
    gamma1: float
    gamma2: float
    gamma3: float
    gamma4: float


# --------------------------------------------------------------------------
# Parameter records.  One frozen dataclass per family: the closed-form
# arguments that REGISTRY builds.
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


def _check_denominator(d: float, context: str) -> None:
    if d < DEGENERATE_DENOMINATOR:
        raise DegenerateStateError(f"{context}: normalization denominator {d:.3e}")


# --------------------------------------------------------------------------
# Single-mode families
# --------------------------------------------------------------------------


def _coherent_pair_norm(params: CoherentPair) -> tuple[float, complex]:
    """Normalization denominator of |alpha> + eta |beta>, and <alpha|beta>."""
    alpha, beta, eta = params.alpha, params.beta, params.eta
    ov = np.exp(-(abs(alpha) ** 2 + abs(beta) ** 2) / 2.0 + np.conj(alpha) * beta)
    return 1.0 + abs(eta) ** 2 + 2.0 * (eta * ov).real, ov


def coherent_superposition_moments(params: CoherentPair) -> OneModeMoments:
    """Moments of N(|alpha> + eta |beta>).

    The overlap <alpha|beta> = exp(-|alpha|^2/2 - |beta|^2/2 + conj(alpha) beta)
    weights every cross term.  Raises :class:`DegenerateStateError` when the
    two branches cancel.
    """
    alpha, beta, eta = params.alpha, params.beta, params.eta
    denom, ov = _coherent_pair_norm(params)
    _check_denominator(denom, "coherent pair")
    norm2 = 1.0 / denom
    n = norm2 * (
        abs(alpha) ** 2
        + abs(eta * beta) ** 2
        + 2.0 * (eta * np.conj(alpha) * beta * ov).real
    )
    pair = norm2 * (
        alpha**2
        + abs(eta) ** 2 * beta**2
        + eta * beta**2 * ov
        + np.conj(eta) * alpha**2 * np.conj(ov)
    )
    mag, phase = _polar(pair)
    n = float(n)
    return OneModeMoments(n=n, pair_mag=mag, pair_phase=phase, excess=mag - n)


def squeezed_vacuum_moments(r: float, delta: float) -> OneModeMoments:
    """Moments of a single squeezed vacuum: n = sinh^2 r, |<a^2>| = sinh r cosh r.

    The excess sinh r cosh r - sinh^2 r = (1 - e^{-2r}) / 2 is evaluated as
    -expm1(-2r) / 2, which keeps full precision at every r.
    """
    if r < 0:
        raise ValueError("squeeze magnitude must be non-negative")
    s, c = np.sinh(r), np.cosh(r)
    mag, phase = _polar(-np.exp(1j * delta) * s * c)
    return OneModeMoments(n=float(s * s), pair_mag=mag, pair_phase=phase, excess=float(-np.expm1(-2.0 * r) / 2.0))


def _superposed_squeezed_norm(params: SqueezedPair) -> tuple[float, float]:
    """Normalization denominator of |r> + eta |-r>, and cosh 2r."""
    c2 = np.cosh(2.0 * params.r)
    ov = 1.0 / np.sqrt(c2)
    return 1.0 + abs(params.eta) ** 2 + 2.0 * params.eta.real * ov, c2


def superposed_squeezed_moments(params: SqueezedPair) -> OneModeMoments:
    """Moments of N(|r> + eta |-r>) for opposite real squeeze axes.

    The branch overlap is 1/sqrt(cosh 2r); cross moments pick up the factor
    (sech 2r)^{3/2} relative to the diagonal ones.  The excess is written
    around the |r> branch's own squeezed vacuum, so it does not cancel.
    """
    r, eta = params.r, params.eta
    if r < 0:
        raise ValueError("squeeze magnitude must be non-negative")
    s, c = np.sinh(r), np.cosh(r)
    denom, c2 = _superposed_squeezed_norm(params)
    _check_denominator(denom, "superposed squeezed")
    norm2 = 1.0 / denom
    cross_n = s * s / c2**1.5
    cross_pair = s * c / c2**1.5
    n = norm2 * (s * s * (1.0 + abs(eta) ** 2) - 2.0 * eta.real * cross_n)
    pair = norm2 * ((abs(eta) ** 2 - 1.0) * s * c + 2j * eta.imag * cross_pair)
    mag, phase = _polar(pair)
    rest = complex(abs(eta) ** 2 * s * c, 2.0 * eta.imag * cross_pair)
    excess = _squeezed_excess(r, -s * c, rest, abs(eta) ** 2 * s * s - 2.0 * eta.real * cross_n, norm2)
    return OneModeMoments(n=float(n), pair_mag=mag, pair_phase=phase, excess=excess)


def _squeezed_excess(r: float, sq: complex, rest: complex, rest_n: float, norm2: float) -> float:
    """F = R - n of a squeezed vacuum superposed with another state.

    The unnormalized pair moment is sq + rest, where sq = -sinh r cosh r
    e^{i delta} is the squeezed vacuum's own, and the unnormalized occupation
    is sinh^2 r + rest_n.  F / norm2 = (|sq + rest| - |sq|)
    + (sinh r cosh r - sinh^2 r) - rest_n, where the first difference is
    evaluated as (2 Re(conj(sq) rest) + |rest|^2) / (|sq + rest| + |sq|) and
    the second as -expm1(-2r)/2, so neither cancels as e^{2r} grows.
    """
    sq, rest = complex(sq), complex(rest)  # Python scalars: cheaper per operation than numpy's
    total = abs(sq + rest) + abs(sq)
    gain = (2.0 * (sq.conjugate() * rest).real + abs(rest) ** 2) / total if total > 0 else 0.0
    return float(norm2) * (gain - math.expm1(-2.0 * r) / 2.0 - float(rest_n))


def _coherent_squeezed_norm(params: CoherentSqueezed) -> tuple[float, complex, float, float, complex]:
    """Normalization denominator of |r, delta> + eta |alpha>, the overlap
    <r, delta|alpha> and its factors gauss, root_sech, twist."""
    r, delta, alpha, eta = params.r, params.delta, params.alpha, params.eta
    root_sech = np.sqrt(1.0 / np.cosh(r))
    gauss = np.exp(-abs(alpha) ** 2 / 2.0)
    twist = np.exp(-0.5 * np.exp(-1j * delta) * alpha**2 * np.tanh(r))
    ov = gauss * root_sech * twist
    return 1.0 + abs(eta) ** 2 + 2.0 * (eta * ov).real, ov, gauss, root_sech, twist


def coherent_plus_squeezed_moments(params: CoherentSqueezed) -> OneModeMoments:
    """Moments of N(|r, delta> + eta |alpha>).

    Parameters
    ----------
    params:
        Squeeze magnitude and phase, coherent amplitude, superposition weight.

    Notes
    -----
    The squeezed-coherent overlap is
    sqrt(sech r) exp(-|alpha|^2/2) exp(-e^{-i delta} alpha^2 tanh(r)/2),
    and the mixed ladder moments carry one extra tanh(r) per pair index.
    """
    r, delta, alpha, eta = params.r, params.delta, params.alpha, params.eta
    if r < 0:
        raise ValueError("squeeze magnitude must be non-negative")
    s, c, t = np.sinh(r), np.cosh(r), np.tanh(r)
    denom, ov, gauss, root_sech, twist = _coherent_squeezed_norm(params)
    _check_denominator(denom, "coherent plus squeezed")
    norm2 = 1.0 / denom
    rotor = np.exp(1j * delta)
    occ = abs(eta * alpha) ** 2
    occ_cross = 2.0 * gauss * root_sech * t * (eta * np.exp(-1j * delta) * alpha**2 * twist).real
    n = norm2 * (s * s + occ - occ_cross)
    sq = -s * c * rotor
    coherent = abs(eta) ** 2 * alpha**2
    cross = eta * alpha**2 * ov
    cross_sq = np.conj(eta) * gauss * root_sech * (np.conj(alpha) ** 2 * rotor * t - 1.0) * rotor * t * np.conj(twist)
    pair = norm2 * (sq + coherent + cross + cross_sq)
    mag, phase = _polar(pair)
    excess = _squeezed_excess(r, sq, coherent + cross + cross_sq, occ - occ_cross, norm2)
    return OneModeMoments(n=float(n), pair_mag=mag, pair_phase=phase, excess=excess)


def _vacuum_squeezed_norm(params: VacuumSqueezed) -> tuple[float, float]:
    """Normalization denominator of |r> + eta |0>, and sech r."""
    sech = 1.0 / np.cosh(params.r)
    return 1.0 + abs(params.eta) ** 2 + 2.0 * params.eta.real * np.sqrt(sech), sech


def vacuum_plus_squeezed_moments(params: VacuumSqueezed) -> OneModeMoments:
    """Moments of N(|r> + eta |0>).

    At the singular corner eta -> -1, r -> 0 the normalized state tends to
    the two-photon ket, so that limit (n = 2, vanishing pair moment) is
    returned instead of an error; its excess is pair_mag - n = -2.
    """
    r, eta = params.r, params.eta
    if r < 0:
        raise ValueError("squeeze magnitude must be non-negative")
    s, c = np.sinh(r), np.cosh(r)
    denom, sech = _vacuum_squeezed_norm(params)
    if denom < DEGENERATE_DENOMINATOR:
        return OneModeMoments(n=2.0, pair_mag=0.0, pair_phase=0.0, excess=-2.0)
    norm2 = 1.0 / denom
    n = norm2 * s * s
    cross = np.conj(eta) * sech**2.5
    pair = -norm2 * s * c * (1.0 + cross)
    mag, phase = _polar(pair)
    excess = _squeezed_excess(r, -s * c, -s * c * cross, 0.0, norm2)
    return OneModeMoments(n=float(n), pair_mag=mag, pair_phase=phase, excess=excess)


# --------------------------------------------------------------------------
# Two-mode families
# --------------------------------------------------------------------------


def barnett_radmore_moments(params: BarnettRadmore) -> TwoModeMoments:
    """Two-mode squeezed vacuum: equal occupations, pair-creation channel only."""
    r, delta = params.r, params.delta
    if r < 0:
        raise ValueError("squeeze magnitude must be non-negative")
    s, c = np.sinh(r), np.cosh(r)
    mag4, phase4 = _polar(-np.exp(1j * delta) * s * c)
    return TwoModeMoments(
        n1=float(s * s),
        n2=float(s * s),
        R1=0.0,
        R2=0.0,
        R3=0.0,
        R4=mag4,
        gamma1=0.0,
        gamma2=0.0,
        gamma3=0.0,
        gamma4=phase4,
    )


def _zhang_norm(params: ZhangReal) -> tuple[float, float]:
    """Normalization denominator of the phase-superposed pair, and cosh 2r."""
    c2 = np.cosh(2.0 * params.r)
    return 2.0 * (1.0 + np.cos(params.theta) / c2), c2


def zhang_moments(params: ZhangReal) -> TwoModeMoments:
    """Phase-superposed doubly-squeezed vacua; only the single-mode pairs survive.

    Degenerate normalization (theta = pi at r = 0) raises
    :class:`DegenerateStateError`.
    """
    r, theta = params.r, params.theta
    if r < 0:
        raise ValueError("squeeze magnitude must be non-negative")
    s = np.sinh(r)
    denom, c2 = _zhang_norm(params)
    _check_denominator(denom, "phase-superposed squeezed pair")
    norm2 = 1.0 / denom
    n = 2.0 * norm2 * s * s * (1.0 - np.cos(theta) / c2**2)
    pair = -1j * norm2 * np.sin(theta) * np.sinh(2.0 * r) / c2**2
    mag, phase = _polar(pair)
    return TwoModeMoments(
        n1=float(n),
        n2=float(n),
        R1=mag,
        R2=mag,
        R3=0.0,
        R4=0.0,
        gamma1=phase,
        gamma2=phase,
        gamma3=0.0,
        gamma4=0.0,
    )


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


def _entangled_coherent_norm(params: EntangledCoherent) -> tuple[float, float]:
    """Normalization denominator of the entangled coherent state, and e^{-4 sigma^2}."""
    overlap4 = np.exp(-4.0 * params.sigma**2)
    return 2.0 * (1.0 + np.cos(params.theta) * overlap4), overlap4


def entangled_coherent_moments(params: EntangledCoherent) -> TwoModeMoments:
    """Moments of N(|alpha, beta> + e^{i theta} |-alpha, -beta>).

    Amplitudes are alpha = sigma e^{i delta1}, beta = sigma e^{i delta2}.
    Because both branches are eigenstates of a^2, b^2 and ab, those channels
    keep their bare coherent values; only the occupations and the
    beam-splitter channel feel the superposition.  sigma = 0 with theta = pi
    is degenerate.
    """
    sigma, theta = params.sigma, params.theta
    if sigma < 0:
        raise ValueError("coherent magnitude must be non-negative")
    alpha = sigma * np.exp(1j * params.delta1)
    beta = sigma * np.exp(1j * params.delta2)
    denom, overlap4 = _entangled_coherent_norm(params)
    _check_denominator(denom, "entangled coherent")
    norm2 = 1.0 / denom
    n = 2.0 * norm2 * sigma**2 * (1.0 - np.cos(theta) * overlap4)
    mag1, phase1 = _polar(alpha**2)
    mag2, phase2 = _polar(beta**2)
    mag3, phase3 = _polar(2.0 * norm2 * np.conj(alpha) * beta * (1.0 - np.cos(theta) * overlap4))
    mag4, phase4 = _polar(alpha * beta)
    return TwoModeMoments(
        n1=float(n),
        n2=float(n),
        R1=mag1,
        R2=mag2,
        R3=mag3,
        R4=mag4,
        gamma1=phase1,
        gamma2=phase2,
        gamma3=phase3,
        gamma4=phase4,
    )


def f_sigma(sigma: float) -> float:
    """Depth profile of the aligned entangled-coherent minimum.

    f(sigma) = sigma^2 e^{-2 sigma^2} (1 + e^{-2 sigma^2}) / (1 + e^{-4 sigma^2});
    the deepest aligned minimum is -4 omega f(sigma) in natural units.
    """
    e2 = np.exp(-2.0 * sigma**2)
    return float(sigma**2 * e2 * (1.0 + e2) / (1.0 + e2 * e2))


# --------------------------------------------------------------------------
# Family registry: one entry per command-line family name.
# --------------------------------------------------------------------------

TWO_PI = 2.0 * math.pi


def _phased(mag: float, phase: float) -> complex:
    return mag * complex(math.cos(phase), math.sin(phase))


@dataclass(frozen=True)
class Layout:
    """How a family's moments become sweep cells and a two-mode density input.

    ``cells`` gives the values under ``columns``; ``lift`` embeds the moments
    in a two-mode grid (``None``: the family has no spatial density).
    """

    columns: tuple[str, ...]
    cells: Callable[[Any], tuple[float, ...]]
    lift: Callable[[Any], TwoModeMoments] | None


ONE_MODE = Layout(
    columns=("n", "R", "F"),
    cells=lambda m: (m.n, m.pair_mag, m.excess),
    # one-mode states occupy mode 1; mode 2 stays empty
    lift=lambda m: TwoModeMoments(m.n, 0.0, m.pair_mag, 0.0, 0.0, 0.0, m.pair_phase, 0.0, 0.0, 0.0),
)
TWO_MODE = Layout(
    columns=("n1", "n2", "R1", "R2", "R3", "R4", "F"),
    cells=lambda m: (m.n1, m.n2, m.R1, m.R2, m.R3, m.R4, m.R1 - m.n1),
    lift=lambda m: m,
)
SCALAR = Layout(columns=("f",), cells=lambda m: (float(m),), lift=None)


@dataclass(frozen=True)
class SearchView:
    """A box over free coordinates of a one-mode family, for the multi-start search.

    ``moments_of`` maps a coordinate vector to the family's moments.
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
        """Wrap angular coordinates, clip the rest into the box."""
        q = np.array(params, dtype=float)
        for i in range(self.dim):
            if self.angular[i]:
                q[i] = np.remainder(q[i], TWO_PI)
            else:
                q[i] = min(max(q[i], self.lower[i]), self.upper[i])
        return q


@dataclass(frozen=True)
class Family:
    """One state family as the command line, the search and verification see it.

    ``defaults`` holds the parameter keys in order; ``domain`` maps bounded
    keys to their inclusive lower bound.  ``record`` turns parameters into the
    argument of ``moments``, the closed-form call, which looks its closed form
    up by module-level name on every call so that rebinding that name reaches
    every caller.  ``norm`` is the helper the closed form takes its
    normalization denominator from (first element of its result).
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
                    CoherentPair(complex(p[0]), p[1] * np.exp(1j * p[3]), p[2] * np.exp(1j * p[4]))
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
                    CoherentPair(p[0] * np.exp(1j * p[3]), p[1] * np.exp(1j * p[4]), p[2] * np.exp(1j * p[5]))
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
                lambda p: vacuum_plus_squeezed_moments(VacuumSqueezed(r=float(p[0]), eta=-1.0 + 0.0j)),
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
