"""Closed-form quadratic moments for the quantum states under study.

Each family maps a small number of parameters, the keyword arguments of its
closed form, to the moments that fix the modes' energy density: the
occupation numbers together with every quadratic ladder expectation as a
complex moment, the excess F = R1 - n1 and the normalization denominator.
Every family produces :class:`TwoModeMoments`, which derives each moment's
magnitude R and phase gamma on first read; a one-mode state occupies mode 1
and leaves mode 2 empty.

Every closed form is written once, over numpy arrays.  Its arguments may be
arrays that broadcast to one batch shape, and every moment comes back with
that shape; a scalar call is a batch of one and returns numpy scalars.  A
batch never raises for one bad row: a row whose normalization vanishes is
flagged ``degenerate``, and a row that overflows comes back non-finite.
The closed forms evaluate under ``np.errstate(all="ignore")``, so neither
prints a numpy warning; callers check the flag and finiteness.

All expressions here are cross-checked against the truncated number-basis
evaluation in :mod:`subvacuum.fock_oracle`; the test suite pins that
agreement to near machine precision.  Where a published expression failed
that cross-check, the moments shipped here are the oracle-confirmed variant
(see the verification report for the side-by-side residuals).

:data:`REGISTRY` describes every family once, by its command-line name:
parameter keys, defaults and domain, the record that maps those keys to the
closed form's keyword arguments, the closed-form call, the sweep columns,
the boxes the search may explore, and, for the families that verification
checks, the number-basis oracle state and the uniform ranges its parameters
are drawn from.  The command line, the optimizer and verification all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping

import numpy as np

from . import fock_oracle

__all__ = [
    "DegenerateStateError",
    "TwoModeMoments",
    "wrap_angle",
    "regular",
    "coherent_superposition_moments",
    "squeezed_vacuum_moments",
    "superposed_squeezed_moments",
    "coherent_plus_squeezed_moments",
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


def _derived(channel: str, phase: bool = False) -> cached_property:
    """``channel``'s magnitude, or its ``phase`` in (-pi, pi], derived on first read: (0, 0) below 1e-15.

    The number 0.0 (an empty channel) gives itself; b2 stored as a2 itself reads a2's.
    """
    def read(m):
        z = getattr(m, channel)
        if channel != "a2" and z is m.a2:
            return m.gamma1 if phase else m.R1
        if type(z) is float and z == 0.0:
            return z
        mag = np.abs(z)
        # np.angle(z) is this arctan2, less its argument checks
        return np.where(mag < 1e-15, 0.0, wrap_angle(np.arctan2(z.imag, z.real)) if phase else mag)[()]

    return cached_property(read)


def _rows(*values):
    """The broadcast shape of ``values``, then each value as an array of at least one row.

    A scalar call is thereby a batch of one: its values go through the same
    numpy ufunc loops as the rows of a longer batch, so a row's moments do
    not depend on the batch they are evaluated in.  Values that already are
    arrays of one shape (a search stencil) are returned as they are.
    """
    shape = getattr(values[0], "shape", ())
    if shape and all(type(v) is np.ndarray and v.shape == shape for v in values):
        return (shape, *values)
    return (np.broadcast_shapes(*map(np.shape, values)), *(np.atleast_1d(v) for v in values))


def _shaped(shape, values) -> list:
    """Each value broadcast to the batch ``shape``; a batch of one gives numpy scalars.

    A value that already has the batch's rows is taken as it is, and so is a
    plain float: one value for every row (an empty channel, a denominator of 1).
    """
    rows = shape or (1,)
    values = [v if type(v) is float or np.shape(v) == rows else np.broadcast_to(v, rows) for v in values]
    return values if shape else [v if type(v) is float else v[0] for v in values]


def _normalization(denom):
    """1 / denom, with NaN on the rows that :attr:`TwoModeMoments.degenerate` marks.

    Every normalized moment of a row whose denominator is below
    ``DEGENERATE_DENOMINATOR`` is thereby NaN.
    """
    return np.where(denom < DEGENERATE_DENOMINATOR, np.nan, 1.0 / denom)


def _denominator(eta, L):
    """1 + |eta|^2 + 2 Re(eta e^L), the squared norm of |A> + eta |B> with L = log <A|B>.

    As |(1 + eta) + eta expm1(L)|^2 - |eta|^2 expm1(2 Re L) it keeps its
    digits as the branches coincide, and at -eta as they oppose.
    """
    return np.abs((1.0 + eta) + eta * np.expm1(L)) ** 2 - np.abs(eta) ** 2 * np.expm1(2.0 * L.real)


def regular(m):
    """``m`` itself, or :class:`DegenerateStateError` if any of its rows is degenerate."""
    if np.any(m.degenerate):
        raise DegenerateStateError(f"degenerate state: normalization denominator below {DEGENERATE_DENOMINATOR:g}")
    return m


def _check_magnitude(x, what: str = "squeeze") -> None:
    if np.any(x < 0):
        raise ValueError(f"{what} magnitude must be non-negative")


@dataclass(frozen=True)
class TwoModeMoments:
    """Moments of a one- or two-mode state: occupations plus the four quadratic channels.

    The one moments record, of the closed forms and the oracle alike.  Its
    channels are complex: ``a2`` = <a^2>, ``b2`` = <b^2>, ``adag_b`` =
    <a^dag b> and ``ab`` = <a b>.  Channel k's magnitude ``Rk`` and phase
    ``gammak`` in (-pi, pi] are derived on first read and kept, (0, 0) below
    magnitude 1e-15.  A one-mode state occupies mode 1: n2, b2, adag_b and
    ab are 0.

    ``excess`` is F = R1 - n1, from a closed form of F itself wherever their
    float64 difference would cancel (under squeezing both grow like e^{2r}/4),
    else the plain difference.  ``denominator`` is the normalization
    denominator of a superposition (1 for any other state).  Each field holds
    one value per row of the batch, or one plain float for every row;
    ``degenerate`` marks the rows whose normalization vanished, where every
    normalized moment is NaN.
    """

    n1: Any
    n2: Any
    a2: Any
    b2: Any
    adag_b: Any
    ab: Any
    excess: Any = None
    denominator: Any = 1.0

    R1, R2, R3, R4 = (_derived(channel) for channel in ("a2", "b2", "adag_b", "ab"))
    gamma1, gamma2, gamma3, gamma4 = (_derived(channel, phase=True) for channel in ("a2", "b2", "adag_b", "ab"))

    def __post_init__(self) -> None:
        if self.excess is None:
            object.__setattr__(self, "excess", self.R1 - self.n1)

    @property
    def degenerate(self):
        return self.denominator < DEGENERATE_DENOMINATOR


def _moments(shape, n1, a2, n2=0.0, b2=0.0, adag_b=0.0, ab=0.0, excess=None, denominator=1.0) -> TwoModeMoments:
    """The record of a batch of ``shape``; ``b2`` passed as ``a2`` itself stays one object."""
    same = b2 is a2
    n1, n2, a2, b2, adag_b, ab, denominator = _shaped(shape, (n1, n2, a2, b2, adag_b, ab, denominator))
    if excess is not None:
        (excess,) = _shaped(shape, (excess,))
    return TwoModeMoments(n1, n2, a2, a2 if same else b2, adag_b, ab, excess, denominator)


# --------------------------------------------------------------------------
# Single-mode families
# --------------------------------------------------------------------------


@_quiet
def coherent_superposition_moments(alpha, beta, eta) -> TwoModeMoments:
    """Moments of N(|alpha> + eta |beta>).

    The overlap <alpha|beta> = exp(-|alpha|^2/2 - |beta|^2/2 + conj(alpha) beta)
    weights every cross term.  Rows where the two branches cancel are
    flagged degenerate.
    """
    shape, alpha, beta, eta = _rows(alpha, beta, eta)
    alpha2, weight = np.abs(alpha) ** 2, np.abs(eta) ** 2
    ov = np.exp(-(alpha2 + np.abs(beta) ** 2) / 2.0 + np.conj(alpha) * beta)
    denom = 1.0 + weight + 2.0 * (eta * ov).real  # n and the pair cancel too: _denominator alone gains no digit
    norm2 = _normalization(denom)
    n = norm2 * (alpha2 + np.abs(eta * beta) ** 2 + 2.0 * (eta * np.conj(alpha) * beta * ov).real)
    alpha_sq, beta_sq = alpha**2, beta**2
    pair = norm2 * (alpha_sq + weight * beta_sq + eta * beta_sq * ov + np.conj(eta) * alpha_sq * np.conj(ov))
    return _moments(shape, n, pair, denominator=denom)


@_quiet
def squeezed_vacuum_moments(r, delta) -> TwoModeMoments:
    """Moments of a single squeezed vacuum: n = sinh^2 r, |<a^2>| = sinh r cosh r.

    The excess sinh r cosh r - sinh^2 r = (1 - e^{-2r}) / 2 is evaluated as
    -expm1(-2r) / 2, which keeps full precision at every r.
    """
    shape, r, delta = _rows(r, delta)
    _check_magnitude(r)
    s, c = np.sinh(r), np.cosh(r)
    return _moments(shape, s * s, -np.exp(1j * delta) * s * c, excess=-np.expm1(-2.0 * r) / 2.0)


@_quiet
def superposed_squeezed_moments(r, eta) -> TwoModeMoments:
    """Moments of N(|r> + eta |-r>) for opposite real squeeze axes (phases 0 and pi), r >= 0.

    The branch overlap is 1/sqrt(cosh 2r); cross moments pick up the factor
    (sech 2r)^{3/2} relative to the diagonal ones.  The excess is written
    around the |r> branch's own squeezed vacuum, so it does not cancel.
    """
    shape, r, eta = _rows(r, eta)
    _check_magnitude(r)
    s, c = np.sinh(r), np.cosh(r)
    c2 = np.cosh(2.0 * r)
    weight = np.abs(eta) ** 2
    denom = _denominator(eta, -0.5 * np.log1p(2.0 * s * s))
    cross_n = s * s / c2**1.5
    cross_pair = s * c / c2**1.5
    pair = (weight - 1.0) * s * c + 2j * eta.imag * cross_pair
    rest = weight * s * c + 2j * eta.imag * cross_pair
    return _squeezed_superposition(shape, r, -s * c, rest, weight * s * s - 2.0 * eta.real * cross_n, pair, denom)


def _squeezed_superposition(shape, r, sq, rest, rest_n, pair, denom):
    """Moments of a squeezed vacuum superposed with another state, from their unnormalized sums.

    The pair moment is ``pair`` = sq + rest, where sq = -sinh r cosh r
    e^{i delta} is the squeezed vacuum's own, the occupation is
    n = sinh^2 r + rest_n, and ``denom`` normalizes both.  F is |pair| - n
    where that cannot cancel (|pair| < n/2, or |pair| + n < |sq|), else
    (|sq + rest| - |sq|) + (sinh r cosh r - sinh^2 r) - rest_n: the first
    difference as (2 Re(conj(sq) rest) + |rest|^2) / (|sq + rest| + |sq|),
    the second as -expm1(-2r)/2, neither cancelling.
    """
    norm2 = _normalization(denom)
    n = np.sinh(r) ** 2 + rest_n
    total = np.abs(sq + rest) + np.abs(sq)
    gain = np.where(total > 0, (2.0 * (np.conj(sq) * rest).real + np.abs(rest) ** 2) / total, 0.0)
    near = np.abs(pair) < np.maximum(0.5 * n, np.abs(sq) - n)
    excess = norm2 * np.where(near, np.abs(pair) - n, gain - np.expm1(-2.0 * r) / 2.0 - rest_n)
    return _moments(shape, norm2 * n, norm2 * pair, excess=excess, denominator=denom)


@_quiet
def coherent_plus_squeezed_moments(r, delta, alpha, eta) -> TwoModeMoments:
    """Moments of N(|r, delta> + eta |alpha>), and of vacuum-squeezed |r> + eta |0> at alpha = delta = 0.

    The branch overlap is e^L = <r, delta|alpha> with L = -(|alpha|^2
    + log1p(2 sinh^2(r/2)) + e^{-i delta} alpha^2 tanh r) / 2.  The mixed
    ladder moments carry one extra tanh r per pair index.  Sums that cancel
    as the branches coincide are written around 1 + conj(eta) and expm1(L):
    the squeezed branch's pair moment and its cross term are -e^{i delta}
    tanh r [(1 + conj eta) + sinh^2 r + conj(eta) (expm1(conj L)
    - conj(alpha^2 e^L) e^{i delta} tanh r)], the coherent branch's and its
    cross term eta alpha^2 [(1 + conj eta) + expm1(L)].
    """
    shape, r, delta, alpha, eta = _rows(r, delta, alpha, eta)
    _check_magnitude(r)
    s = np.sinh(r)
    t, rotor = np.tanh(r), np.exp(1j * delta)
    L = -0.5 * (np.abs(alpha) ** 2 + np.log1p(2.0 * np.sinh(0.5 * r) ** 2) + alpha**2 * np.conj(rotor) * t)
    ov, em = np.exp(L), np.expm1(L)
    denom = _denominator(eta, L)
    conj_eta, alpha_sq, turn = np.conj(eta), alpha**2, rotor * t
    twist = np.conj(alpha_sq * ov) * turn
    rest_n = np.abs(eta * alpha) ** 2 - 2.0 * (conj_eta * twist).real
    # rest: the pair moment less the squeezed branch's own, from its own terms
    rest = eta * alpha_sq * ((1.0 + conj_eta) + em)
    pair = rest - turn * ((1.0 + conj_eta) + s * s + conj_eta * (np.conj(em) - twist))
    rest += conj_eta * turn * (twist - np.conj(ov))
    del L, ov, em, twist, turn  # the working set: no more than the moments need from here
    return _squeezed_superposition(shape, r, -s * np.cosh(r) * rotor, rest, rest_n, pair, denom)


# --------------------------------------------------------------------------
# Two-mode families
# --------------------------------------------------------------------------


@_quiet
def barnett_radmore_moments(r, delta) -> TwoModeMoments:
    """Two-mode squeezed vacuum of magnitude r and phase delta: equal occupations, pair-creation channel only."""
    shape, r, delta = _rows(r, delta)
    _check_magnitude(r)
    s, c = np.sinh(r), np.cosh(r)
    n = s * s
    return _moments(shape, n, 0.0, n2=n, ab=-np.exp(1j * delta) * s * c)


@_quiet
def zhang_moments(r, theta) -> TwoModeMoments:
    """Phase-superposed doubly-squeezed vacua; only the single-mode pairs survive.

    Both modes carry the same real squeeze magnitude r; the two branches
    squeeze along opposite axes, with relative phase theta.  Degenerate
    normalization (theta = pi at r = 0) flags the row.
    """
    shape, r, theta = _rows(r, theta)
    _check_magnitude(r)
    s = np.sinh(r)
    eta, L = np.exp(1j * theta), -np.log1p(2.0 * s * s)
    denom = _denominator(eta, L)
    norm2 = _normalization(denom)
    n = norm2 * s * s * _denominator(-eta, 2.0 * L)
    pair = -1j * norm2 * np.sin(theta) * np.sinh(2.0 * r) * np.exp(2.0 * L)
    return _moments(shape, n, pair, n2=n, b2=pair, denominator=denom)


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


@_quiet
def entangled_coherent_moments(sigma, theta, delta1, delta2) -> TwoModeMoments:
    """Moments of N(|alpha, beta> + e^{i theta} |-alpha, -beta>).

    Amplitudes are alpha = sigma e^{i delta1}, beta = sigma e^{i delta2}.
    Because both branches are eigenstates of a^2, b^2 and ab, those channels
    keep their bare coherent values; only the occupations and the
    beam-splitter channel feel the superposition, through the branch overlap
    e^L = e^{-4 sigma^2}.  F = sigma^2 - n1 is 4 sigma^2 cos(theta) e^L over
    the denominator.  sigma = 0 with theta = pi is degenerate.
    """
    shape, sigma, theta, delta1, delta2 = _rows(sigma, theta, delta1, delta2)
    _check_magnitude(sigma, "coherent")
    alpha = sigma * np.exp(1j * delta1)
    beta = sigma * np.exp(1j * delta2)
    eta, L = np.exp(1j * theta), -4.0 * sigma**2
    denom = _denominator(eta, L)
    norm2 = _normalization(denom)
    odd = norm2 * _denominator(-eta, L)
    n = sigma**2 * odd
    excess = 4.0 * sigma**2 * np.cos(theta) * np.exp(L) * norm2 + 0.0  # + 0.0: a zero F prints 0, not -0
    return _moments(shape, n, alpha**2, n2=n, b2=beta**2, adag_b=np.conj(alpha) * beta * odd, ab=alpha * beta,
                    excess=excess, denominator=denom)


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
    """How a family's moments become sweep cells: ``cells`` gives the values under ``columns``."""

    columns: tuple[str, ...]
    cells: Callable[[Any], tuple]


#: One-mode states occupy mode 1 and print its moments only.
ONE_MODE = Layout(columns=("n", "R", "F"), cells=lambda m: (m.n1, m.R1, m.excess))
TWO_MODE = Layout(
    columns=("n1", "n2", "R1", "R2", "R3", "R4", "F"),
    cells=lambda m: (m.n1, m.n2, m.R1, m.R2, m.R3, m.R4, m.excess),
)
#: A scalar figure of merit: no moments, hence no spatial density.
SCALAR = Layout(columns=("f",), cells=lambda m: (m,))


@dataclass(frozen=True)
class SearchView:
    """A box over some parameter keys of a one-mode family, for the multi-start search.

    ``names`` are the keys the search frees, with the box ``lower`` to
    ``upper``.  ``angular`` marks coordinates living on the circle: they are
    wrapped modulo 2 pi rather than clipped, and differenced on the circle.
    ``canonical`` (optional) maps a coordinate vector to a symmetry-reduced
    representative before clustering.  ``moments_of`` maps a coordinate
    vector, or an array with one vector per row, to the moments (one row
    each); a :class:`Family` binds it for each of its ``searches``.
    ``wraps``, ``lo`` and ``hi`` are built once: the angular flags and the
    box as arrays, the angular coordinates unbounded (an L-BFGS-B run's bounds).
    """

    names: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    angular: tuple[bool, ...]
    moments_of: Callable[[np.ndarray], TwoModeMoments] | None = None
    canonical: Callable[[np.ndarray], np.ndarray] | None = None
    wraps: np.ndarray = field(init=False, repr=False, compare=False)
    lo: np.ndarray = field(init=False, repr=False, compare=False)
    hi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = len(self.names)
        if not (len(self.lower) == len(self.upper) == len(self.angular) == k and k > 0):
            raise ValueError("names, bounds and angular flags must align and be non-empty")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("lower bounds must not exceed upper bounds")
        wraps = np.array(self.angular)
        object.__setattr__(self, "wraps", wraps)
        object.__setattr__(self, "lo", np.where(wraps, -np.inf, self.lower))
        object.__setattr__(self, "hi", np.where(wraps, np.inf, self.upper))

    @property
    def dim(self) -> int:
        return len(self.names)

    def clamp(self, params: np.ndarray) -> np.ndarray:
        """Wrap angular coordinates, clip the rest into the box (row-wise for an array of points)."""
        q = np.asarray(params, dtype=float)
        return np.where(self.wraps, np.remainder(q, TWO_PI), np.minimum(np.maximum(q, self.lo), self.hi))


@dataclass(frozen=True)
class Family:
    """One state family as the command line, the search and verification see it.

    ``defaults`` holds the parameter keys in order; ``domain`` maps bounded
    keys to their inclusive lower bound.  ``record`` turns parameters (numbers,
    or arrays with one entry per row) into the closed form's keyword
    arguments; its default, the identity, serves the families whose keys
    already are those arguments.  ``moments`` is the closed-form call on
    them, which looks its closed form up by module-level name on every call
    so that rebinding that name reaches every caller.
    ``searches`` names the boxes the optimizer may explore over the family's
    keys; each view's ``moments_of`` is bound here to ``record`` at its keys,
    every other key at its default, as ``sweep`` keeps its unswept keys.
    ``oracle(record, cutoff)`` (verified families only) builds the same states
    from the same keywords in the truncated number basis, one per row, from
    :mod:`subvacuum.fock_oracle` constructors alone, so that it stays
    independent of the closed forms.  ``draws`` maps every parameter key, in
    ``defaults`` order, to the upper end of the uniform range [0, upper) that
    verification draws it from.
    """

    defaults: Mapping[str, float]
    layout: Layout
    moments: Callable[[Mapping[str, Any]], Any]
    record: Callable[[Mapping[str, Any]], Mapping[str, Any]] = lambda params: params
    domain: Mapping[str, float] = field(default_factory=dict)
    searches: Mapping[str, SearchView] = field(default_factory=dict)
    oracle: Callable[[Mapping[str, Any], int], fock_oracle.FockVector | fock_oracle.TwoModeFockVector] | None = None
    draws: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for view in self.searches.values():
            object.__setattr__(view, "moments_of", lambda p, names=view.names: self.moments(
                self.record({**self.defaults, **dict(zip(names, p.T))})))


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


def _plus(first: fock_oracle.FockVector, eta, second: fock_oracle.FockVector) -> fock_oracle.FockVector:
    """N(first + eta second), row by row."""
    return fock_oracle.superpose([(1.0, first), (eta, second)])


def _coherent_squeezed_state(p: Mapping[str, Any], cut: int) -> fock_oracle.FockVector:
    return _plus(fock_oracle.squeezed_vacuum_vector(p["r"], p["delta"], cut), p["eta"],
                 fock_oracle.coherent_vector(p["alpha"], cut))


def _zhang_state(p: Mapping[str, Any], cut: int) -> fock_oracle.TwoModeFockVector:
    minus = fock_oracle.squeezed_vacuum_vector(p["r"], math.pi, cut)
    plus = fock_oracle.squeezed_vacuum_vector(p["r"], 0.0, cut)
    return fock_oracle.superpose_two_mode([(1.0, minus, minus), (np.exp(1j * p["theta"]), plus, plus)])


def _entangled_coherent_state(p: Mapping[str, Any], cut: int) -> fock_oracle.TwoModeFockVector:
    a, b = _phased(p["sigma"], p["delta1"]), _phased(p["sigma"], p["delta2"])
    coherent = fock_oracle.coherent_vector
    return fock_oracle.superpose_two_mode(
        [(1.0, coherent(a, cut), coherent(b, cut)), (np.exp(1j * p["theta"]), coherent(-a, cut), coherent(-b, cut))]
    )


#: Upper ends of the verification draws: squeeze magnitudes, coherent
#: amplitudes (and the entangled coherent sigma), superposition weights.
#: Phases are drawn from [0, 2 pi).
_R_DRAW, _AMPLITUDE_DRAW, _WEIGHT_DRAW = 2.5, 3.0, 4.0

REGISTRY: dict[str, Family] = {
    "coherent-pair": Family(
        defaults={"alpha": 0.8, "delta1": 0.0, "beta": 0.8, "delta2": math.pi, "eta": 1.0, "delta": 0.0},
        layout=ONE_MODE,
        record=lambda p: {"alpha": _phased(p["alpha"], p["delta1"]), "beta": _phased(p["beta"], p["delta2"]),
                          "eta": _phased(p["eta"], p["delta"])},
        moments=lambda p: coherent_superposition_moments(**p),
        oracle=lambda p, cut: _plus(fock_oracle.coherent_vector(p["alpha"], cut), p["eta"],
                                    fock_oracle.coherent_vector(p["beta"], cut)),
        draws={"alpha": _AMPLITUDE_DRAW, "delta1": TWO_PI, "beta": _AMPLITUDE_DRAW, "delta2": TWO_PI,
               "eta": _WEIGHT_DRAW, "delta": TWO_PI},
        searches={
            # A global phase rotation makes the first amplitude's phase
            # redundant: delta1 is not searched and stays at its default 0.
            "coherent-pair": SearchView(
                names=("alpha", "beta", "eta", "delta2", "delta"),
                lower=(0.0, 0.0, 0.0, 0.0, 0.0),
                upper=(3.0, 3.0, 4.0, TWO_PI, TWO_PI),
                angular=(False, False, False, True, True),
                canonical=_canonical_pair,
            ),
            # Unpinned, so the flatness of that direction can be tested.
            "coherent-pair-free": SearchView(
                names=("alpha", "beta", "eta", "delta1", "delta2", "delta"),
                lower=(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                upper=(3.0, 3.0, 4.0, TWO_PI, TWO_PI, TWO_PI),
                angular=(False, False, False, True, True, True),
            ),
        },
    ),
    "squeezed-vacuum": Family(
        defaults={"r": 1.0, "delta": 0.0},
        layout=ONE_MODE,
        moments=lambda p: squeezed_vacuum_moments(**p),
        domain={"r": 0.0},
    ),
    "superposed-squeezed": Family(
        defaults={"r": 1.0, "eta": 0.0, "eta_phase": 0.0},
        layout=ONE_MODE,
        record=lambda p: {"r": p["r"], "eta": _phased(p["eta"], p["eta_phase"])},
        moments=lambda p: superposed_squeezed_moments(**p),
        domain={"r": 0.0},
        oracle=lambda p, cut: _plus(fock_oracle.squeezed_vacuum_vector(p["r"], 0.0, cut), p["eta"],
                                    fock_oracle.squeezed_vacuum_vector(p["r"], math.pi, cut)),
        draws={"r": _R_DRAW, "eta": _WEIGHT_DRAW, "eta_phase": TWO_PI},
    ),
    "coherent-squeezed": Family(
        defaults={"r": 1.0, "delta": 0.0, "alpha": 0.6, "alpha_phase": 0.0, "eta": 1.0, "eta_phase": 0.0},
        layout=ONE_MODE,
        record=lambda p: {"r": p["r"], "delta": p["delta"], "alpha": _phased(p["alpha"], p["alpha_phase"]),
                          "eta": _phased(p["eta"], p["eta_phase"])},
        moments=lambda p: coherent_plus_squeezed_moments(**p),
        domain={"r": 0.0},
        oracle=_coherent_squeezed_state,
        draws={"r": _R_DRAW, "delta": TWO_PI, "alpha": _AMPLITUDE_DRAW, "alpha_phase": TWO_PI,
               "eta": _WEIGHT_DRAW, "eta_phase": TWO_PI},
    ),
    "vacuum-squeezed": Family(
        defaults={"r": 1.0, "eta": -1.0, "eta_phase": 0.0},
        layout=ONE_MODE,
        # coherent-squeezed at alpha = 0, delta = 0
        record=lambda p: {"r": p["r"], "delta": 0.0, "alpha": 0.0, "eta": _phased(p["eta"], p["eta_phase"])},
        moments=lambda p: coherent_plus_squeezed_moments(**p),
        domain={"r": 0.0},
        oracle=_coherent_squeezed_state,
        draws={"r": _R_DRAW, "eta": _WEIGHT_DRAW, "eta_phase": TWO_PI},
        searches={
            # the r axis at the default eta = -1
            "vacuum-squeezed": SearchView(("r",), (0.0,), (3.0,), (False,)),
        },
    ),
    "barnett-radmore": Family(
        defaults={"r": 1.0, "delta": 0.0},
        layout=TWO_MODE,
        moments=lambda p: barnett_radmore_moments(**p),
        domain={"r": 0.0},
        oracle=lambda p, cut: fock_oracle.two_mode_squeezed_vector(p["r"], p["delta"], cut),
        draws={"r": _R_DRAW, "delta": TWO_PI},
    ),
    "zhang": Family(
        defaults={"r": 0.007, "theta": 0.99 * math.pi},
        layout=TWO_MODE,
        moments=lambda p: zhang_moments(**p),
        domain={"r": 0.0},
        oracle=_zhang_state,
        draws={"r": _R_DRAW, "theta": TWO_PI},
    ),
    "entangled-coherent": Family(
        defaults={"sigma": 0.7, "theta": 0.0, "delta1": 0.0, "delta2": 0.0},
        layout=TWO_MODE,
        moments=lambda p: entangled_coherent_moments(**p),
        domain={"sigma": 0.0},
        oracle=_entangled_coherent_state,
        draws={"sigma": _AMPLITUDE_DRAW, "theta": TWO_PI, "delta1": TWO_PI, "delta2": TWO_PI},
    ),
    "ecs-f": Family(defaults={"sigma": 0.7}, layout=SCALAR, moments=lambda p: f_sigma(**p)),
    "vacuum": Family(defaults={}, layout=TWO_MODE, moments=lambda p: TwoModeMoments(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
}

#: Search view name -> (family name, view), in registry order.
SEARCHES: dict[str, tuple[str, SearchView]] = {
    view_name: (name, view) for name, family in REGISTRY.items() for view_name, view in family.searches.items()
}
