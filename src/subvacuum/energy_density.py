"""Mean energy density of two-mode excitations, and its minima.

Natural units throughout: hbar = c = 1 and the mode normalization volume is
fixed at 1, so densities carry units of (angular) frequency.  Moments enter
through the (n, R, gamma) parameterization of :mod:`subvacuum.state_families`.

A one-mode state is a two-mode record with mode 2 empty, so one formula per
geometry serves both.  Traveling plane waves along khat1 = +z and
khat2 = (sqrt(1 - c^2), 0, c), with c the cosine of the angle between them,
give

    rho = n1 w1 + n2 w2
        + R1 w1 cos(2(k1.x - w1 t) + g1) + R2 w2 cos(2(k2.x - w2 t) + g2)
        + sqrt(w1 w2) (1 + khat1.khat2) [ R3 cos((k2-k1).x - (w2-w1)t + g3)
                                        + R4 cos((k2+k1).x - (w2+w1)t + g4) ],

while standing waves along one axis give the product-of-cosines analogue with
a factor 2 on the cross channels.  These are the normal-ordered mode sums
rho = sum_mu [Re(u^T M u) + u^dag N u], with N_ij = <a_i^dag a_j>,
M_ij = <a_i a_j> and u_j = d_mu f_j, for the mode functions

    traveling:  f_j = i exp(i(k_j.x - w_j t)) / sqrt(2 w_j),
    standing:   f_j = sqrt(2) sin(w_j z) exp(-i w_j t) / sqrt(2 w_j),

with z the coordinate along the cavity axis (x[0] of a point).  Each formula
is written once, vectorized, and adds no term for a channel whose magnitude
Rk is exactly 0.
The numeric minimizer scans the span of the wave vectors (the density depends
on x only through the k.x phases) plus time, one t slab at a time, then
polishes with a Nelder-Mead refinement; the point evaluator ``rho_two_mode``
and the sample export use the same formulas, and the export recomputes each
t slab of the scan grid as it writes it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .state_families import TwoModeMoments, f_sigma

__all__ = [
    "ModeGeometry",
    "SpacetimePoint",
    "DensityProfile",
    "rho_min_one_mode",
    "rho_two_mode",
    "rho_min_two_mode_numeric",
    "density_profile",
    "rho_min_br_closed",
    "br_vs_2sq_gap",
    "rho_min_ecs_aligned",
    "spacetime_average",
]

_KINDS = ("traveling", "standing")
_KHAT1 = (0.0, 0.0, 1.0)


@dataclass(frozen=True)
class ModeGeometry:
    """Mode kind, frequencies and the cosine of the angle between the modes.

    ``cosangle`` = khat1.khat2 places traveling modes along khat1 = +z and
    khat2 = (sqrt(1 - c^2), 0, c); the cross channels carry the factor
    (1 + cosangle).  Standing waves depend on one spatial coordinate and do
    not use it.  The frequencies must be positive and finite and cosangle
    must lie in [-1, 1].
    """

    kind: str
    omega1: float
    omega2: float
    cosangle: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"geometry kind must be 'traveling' or 'standing', got {self.kind!r}")
        if not (0 < self.omega1 < math.inf and 0 < self.omega2 < math.inf):
            raise ValueError("geometry frequencies must be positive and finite")
        if not -1.0 <= self.cosangle <= 1.0:
            raise ValueError("geometry cosangle must lie in [-1, 1]")


def _khat2(g: ModeGeometry) -> tuple[float, float, float]:
    """Mode 2's propagation direction, at angle arccos(cosangle) from khat1 = +z."""
    c = g.cosangle
    return (math.sqrt(max(0.0, 1.0 - c * c)), 0.0, c)


@dataclass(frozen=True)
class SpacetimePoint:
    x: tuple[float, float, float]
    t: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (*self.x, self.t))):
            raise ValueError("spacetime point must be finite")


@dataclass(frozen=True)
class DensityProfile:
    """The scan grid of a density plus the refined minimum over the scan window.

    The grid is the product of the times ``t`` (grid_n,) and the spatial
    points ``space`` (M, 3), the Cartesian x of each spatial grid point in
    lexicographic order of its span coordinates.  M is grid_n**2 for skew
    traveling modes and grid_n otherwise.  The density itself is not kept:
    :meth:`slabs` recomputes it one t at a time, bit for bit the values the
    scan checked, from ``moments`` and ``geometry``.
    """

    t: np.ndarray
    space: np.ndarray
    min_found: tuple[SpacetimePoint, float]
    moments: TwoModeMoments
    geometry: ModeGeometry

    def slabs(self) -> Iterator[np.ndarray]:
        """The density at each t in turn, over the (M,) spatial points."""
        return _slabs(self.moments, self.geometry, self.t)

    @property
    def rho(self) -> np.ndarray:
        """(grid_n, M) density at each (t, x) pair, stacked from :meth:`slabs`."""
        return np.stack(list(self.slabs()))

    @property
    def samples(self) -> np.ndarray:
        """(N, 5) rows of x1, x2, x3, t, rho in (t, space...) lexicographic order."""
        rho = self.rho
        n, m = rho.shape
        return np.column_stack([np.tile(self.space, (n, 1)), np.repeat(self.t, m), rho.ravel()])


def rho_min_one_mode(m: TwoModeMoments, omega: float) -> float:
    """Global minimum -omega (R1 - n1) of a one-mode state; negative exactly when R1 > n1.

    R1 - n1 is the moments' ``excess``, cancellation-free where the closed
    form allows.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    return -omega * m.excess


def _occupied(m: TwoModeMoments, w1: float, w2: float, coords, channels):
    """n1 w1 + n2 w2 plus the ``channels`` terms, each of the broadcast shape of ``coords``.

    Channel k's term (a thunk) is evaluated and added, in channel order, only
    when its magnitude Rk is not exactly 0.  An empty channel's term is
    0 * finite = +-0, and adding +-0 to a sum that is never -0 changes no
    bit, so a finite density is the six-term sum bit for bit; an empty
    channel whose phase or weight overflows (0 * inf = nan) adds nothing.
    With every channel empty the density is n1 w1 + n2 w2 over that shape.
    """
    base = rho = m.n1 * w1 + m.n2 * w2
    for magnitude, term in zip((m.R1, m.R2, m.R3, m.R4), channels):
        if magnitude != 0:
            rho = rho + term()
    return np.broadcast_to(base, np.broadcast_shapes(*map(np.shape, coords))) if rho is base else rho


def _traveling_rho(m: TwoModeMoments, g: ModeGeometry, k1x, k2x, t):
    """Vectorized traveling-wave density from the phases k1.x and k2.x."""
    w1, w2 = g.omega1, g.omega2
    geom = math.sqrt(w1 * w2) * (1.0 + g.cosangle)
    return _occupied(m, w1, w2, (k1x, k2x, t), (
        lambda: m.R1 * w1 * np.cos(2.0 * (k1x - w1 * t) + m.gamma1),
        lambda: m.R2 * w2 * np.cos(2.0 * (k2x - w2 * t) + m.gamma2),
        lambda: m.R3 * geom * np.cos((k2x - k1x) - (w2 - w1) * t + m.gamma3),
        lambda: m.R4 * geom * np.cos((k2x + k1x) - (w2 + w1) * t + m.gamma4),
    ))


def _standing_rho(m: TwoModeMoments, g: ModeGeometry, x, t):
    """Vectorized standing-wave density along the cavity axis."""
    w1, w2 = g.omega1, g.omega2
    cross = 2.0 * math.sqrt(w1 * w2)
    return _occupied(m, w1, w2, (x, t), (
        lambda: m.R1 * w1 * np.cos(2.0 * w1 * x) * np.cos(2.0 * w1 * t - m.gamma1),
        lambda: m.R2 * w2 * np.cos(2.0 * w2 * x) * np.cos(2.0 * w2 * t - m.gamma2),
        lambda: m.R3 * cross * np.cos((w2 - w1) * x) * np.cos((w2 - w1) * t - m.gamma3),
        lambda: m.R4 * cross * np.cos((w1 + w2) * x) * np.cos((w1 + w2) * t - m.gamma4),
    ))


def _phases(g: ModeGeometry, s1, s2=0.0):
    """The phases k1.x and k2.x of traveling modes at x = s1 khat1 + s2 khat2.

    k1.x = w1 (s1 + c s2) and k2.x = w2 (c s1 + s2) with c = khat1.khat2.
    """
    c = g.cosangle
    return g.omega1 * (s1 + c * s2), g.omega2 * (c * s1 + s2)


def _span_rho(m: TwoModeMoments, g: ModeGeometry, t, s1, s2=0.0):
    """Density at time t and span coordinates (s1, s2), vectorized.

    Traveling waves are evaluated at x = s1 khat1 + s2 khat2, standing waves
    at the cavity coordinate s1 (``s2`` is unused).
    """
    if g.kind == "standing":
        return _standing_rho(m, g, s1, t)
    return _traveling_rho(m, g, *_phases(g, s1, s2), t)


def _span_x(g: ModeGeometry, s1, s2=0.0) -> np.ndarray:
    """Cartesian x of span coordinates, on a trailing axis of length 3."""
    if g.kind == "standing":
        s1 = np.asarray(s1, dtype=float)
        return np.stack([s1, np.zeros_like(s1), np.zeros_like(s1)], axis=-1)
    return np.multiply.outer(s1, _KHAT1) + np.multiply.outer(s2, _khat2(g))


def _span_axes(g: ModeGeometry) -> int:
    """Spatial scan axes: skew traveling modes (|khat1.khat2| != 1) span a plane, the rest a line."""
    return 2 if g.kind == "traveling" and abs(abs(g.cosangle) - 1.0) >= 1e-12 else 1


def _slabs(m: TwoModeMoments, g: ModeGeometry, axis: np.ndarray) -> Iterator[np.ndarray]:
    """The density at each t in ``axis``, one flat slab over the spatial grid at a time.

    The spatial grid takes ``axis`` along each span coordinate, in C order.
    Its t-independent parts (the cavity coordinate of standing modes, the
    phases k1.x and k2.x of traveling ones) are computed once; a slab is
    grid_n**axes values and no array of the full grid's size is made.
    """
    space = np.meshgrid(*[axis] * _span_axes(g), indexing="ij", sparse=True)
    rho = _standing_rho if g.kind == "standing" else _traveling_rho
    with np.errstate(all="ignore"):
        spatial = space if g.kind == "standing" else _phases(g, *space)
    for t in axis:
        with np.errstate(all="ignore"):  # a non-finite slab is the scan's to refuse
            slab = rho(m, g, *spatial, t).ravel()
        yield slab


def rho_two_mode(m: TwoModeMoments, g: ModeGeometry, p: SpacetimePoint) -> float:
    """Density at an explicit spacetime point; standing waves read only p.x[0].

    Raises ``FloatingPointError`` when the density there is not finite.
    """
    with np.errstate(all="ignore"):
        if g.kind == "standing":
            rho = float(_standing_rho(m, g, p.x[0], p.t))
        else:
            x = np.asarray(p.x, dtype=float)
            k1x = float((g.omega1 * np.asarray(_KHAT1, dtype=float)) @ x)
            k2x = float((g.omega2 * np.asarray(_khat2(g), dtype=float)) @ x)
            rho = float(_traveling_rho(m, g, k1x, k2x, p.t))
    if not math.isfinite(rho):
        raise FloatingPointError("density is not finite at this point")
    return rho


def _moments_finite(m: TwoModeMoments) -> bool:
    vals = (m.n1, m.n2, m.R1, m.R2, m.R3, m.R4, m.gamma1, m.gamma2, m.gamma3, m.gamma4)
    return all(map(math.isfinite, vals))


def _scan_and_polish(m: TwoModeMoments, g: ModeGeometry, window: float, grid_n: int):
    """The scan axis and the polished minimum (point, value).

    The scan walks the t slabs once, refusing the first that is not finite,
    and keeps the first minimum in C order (the smallest t, then the
    smallest span coordinates): the first within a slab by ``argmin``, and a
    later slab only by a strictly smaller value.
    """
    if grid_n < 16:
        raise ValueError("grid_n must be at least 16")
    if window <= 0:
        raise ValueError("window must be positive")
    if not _moments_finite(m):
        raise ValueError("non-finite moments")

    axis = np.linspace(0.0, window, grid_n)
    best_val, best = math.inf, None
    for i, slab in enumerate(_slabs(m, g, axis)):
        if not np.isfinite(slab).all():
            raise FloatingPointError("density is not finite on the scan grid")
        j = int(np.argmin(slab))
        if slab[j] < best_val:
            best_val, best = float(slab[j]), (i, *np.unravel_index(j, (grid_n,) * _span_axes(g)))
    best = axis[list(best)]

    def objective(q) -> float:
        # Trial points past the window can overflow: a non-finite value
        # counts as +inf, so it never displaces the scan minimum.
        value = float(_span_rho(m, g, *q))
        return value if math.isfinite(value) else math.inf

    with np.errstate(all="ignore"):
        res = minimize(
            objective,
            best,
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000, "maxfev": 8000},
        )
    if res.fun < best_val:
        best, best_val = np.asarray(res.x, dtype=float), float(res.fun)
    x = _span_x(g, *best[1:])
    return axis, (SpacetimePoint(x=(float(x[0]), float(x[1]), float(x[2])), t=float(best[0])), best_val)


def rho_min_two_mode_numeric(
    m: TwoModeMoments, g: ModeGeometry, window: float, grid_n: int
) -> tuple[SpacetimePoint, float]:
    """Numeric minimum of the density over x in the wave-vector span, t in [0, window].

    A dense grid scan (``grid_n`` points per axis, ties broken toward the
    smallest t then the smallest spatial coordinates) seeds a Nelder-Mead
    polish; the polished value is kept only if it improves on the best
    sample, so the result is always <= every sampled value.
    """
    return _scan_and_polish(m, g, window, grid_n)[1]


def density_profile(
    m: TwoModeMoments, g: ModeGeometry, window: float, grid_n: int
) -> DensityProfile:
    """The scan grid plus the refined minimum, for data export.

    The grid is the minimizer's own scan, checked finite there, and the
    profile's slabs recompute its values bit for bit, so the minimum is
    <= every grid value exactly.
    """
    axis, min_found = _scan_and_polish(m, g, window, grid_n)
    space = _span_x(g, *np.meshgrid(*[axis] * _span_axes(g), indexing="ij")).reshape(-1, 3)
    return DensityProfile(t=axis, space=space, min_found=min_found, moments=m, geometry=g)


def rho_min_br_closed(r: float, omega1: float, omega2: float) -> float:
    """Closed-form minimum for the two-mode squeezed vacuum, aligned traveling modes.

    -sinh r [2 sqrt(w1 w2) cosh r - (w1 + w2) sinh r], evaluated without
    cancellation as sqrt(w1 w2) expm1(-2r) + (sqrt(w1) - sqrt(w2))^2 sinh^2 r,
    with (sqrt(w1) - sqrt(w2))^2 written (w1 - w2)^2 / (sqrt(w1) + sqrt(w2))^2.
    The squeeze phase moves the location of the minimum but not its depth,
    so it is not an argument.  Alignment means
    khat1.khat2 = 1, so the cross-channel geometric factor is 2.
    """
    if r < 0:
        raise ValueError("squeeze magnitude must be non-negative")
    if not (omega1 > 0 and omega2 > 0):
        raise ValueError("frequencies must be positive")
    return math.sqrt(omega1 * omega2) * math.expm1(-2.0 * r) + _root_gap(omega1, omega2) * math.sinh(r) ** 2


def br_vs_2sq_gap(r: float, omega1: float, omega2: float) -> float:
    """How much deeper one two-mode squeezed vacuum digs than two one-mode ones.

    sinh r cosh r (sqrt(w1) - sqrt(w2))^2 >= 0, vanishing only at equal
    frequencies.
    """
    if r < 0:
        raise ValueError("squeeze magnitude must be non-negative")
    if not (omega1 > 0 and omega2 > 0):
        raise ValueError("frequencies must be positive")
    return math.sinh(r) * math.cosh(r) * _root_gap(omega1, omega2)


def _root_gap(omega1: float, omega2: float) -> float:
    """(sqrt(w1) - sqrt(w2))^2 as (w1 - w2)^2 / (sqrt(w1) + sqrt(w2))^2, free of cancellation."""
    return (omega1 - omega2) ** 2 / (math.sqrt(omega1) + math.sqrt(omega2)) ** 2


def rho_min_ecs_aligned(sigma: float, omega: float) -> float:
    """Deepest density of the aligned entangled coherent state: -4 omega f(sigma)."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return -4.0 * omega * f_sigma(sigma)


def spacetime_average(m: TwoModeMoments, g: ModeGeometry) -> float:
    """Average density over a full common period: the oscillations cancel.

    Equals n1 w1 + n2 w2 and is therefore never negative — negative energy
    densities are strictly local.
    """
    return m.n1 * g.omega1 + m.n2 * g.omega2
