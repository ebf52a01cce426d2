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
a factor 2 on the cross channels.  Each formula is written once, vectorized.
The numeric minimizer scans the span of the wave vectors (the density depends
on x only through the k.x phases) plus time, then polishes with a
Nelder-Mead refinement; the point evaluator ``rho_two_mode`` and the sample
export use the same formulas, and the export reuses the scan grid.
"""

from __future__ import annotations

import math
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
    """Density on the scan grid plus the refined minimum over the scan window.

    The grid is the product of the times ``t`` (grid_n,) and the spatial
    points ``space`` (M, 3), the Cartesian x of each spatial grid point in
    lexicographic order of its span coordinates; ``rho`` (grid_n, M) holds
    the density at each (t, x) pair.  M is grid_n**2 for skew traveling
    modes and grid_n otherwise.
    """

    t: np.ndarray
    space: np.ndarray
    rho: np.ndarray
    min_found: tuple[SpacetimePoint, float]

    @property
    def samples(self) -> np.ndarray:
        """(N, 5) rows of x1, x2, x3, t, rho in (t, space...) lexicographic order."""
        n, m = self.rho.shape
        return np.column_stack([np.tile(self.space, (n, 1)), np.repeat(self.t, m), self.rho.ravel()])


def rho_min_one_mode(m: TwoModeMoments, omega: float) -> float:
    """Global minimum -omega (R1 - n1) of a one-mode state; negative exactly when R1 > n1.

    R1 - n1 is the moments' ``excess``, cancellation-free where the closed
    form allows.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    return -omega * m.excess


def _traveling_rho(m: TwoModeMoments, g: ModeGeometry, k1x, k2x, t):
    """Vectorized traveling-wave density from the phases k1.x and k2.x."""
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


def _standing_rho(m: TwoModeMoments, g: ModeGeometry, x, t):
    """Vectorized standing-wave density along the cavity axis."""
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


def _span_rho(m: TwoModeMoments, g: ModeGeometry, t, s1, s2=0.0):
    """Density at time t and span coordinates (s1, s2), vectorized.

    Traveling waves are evaluated at x = s1 khat1 + s2 khat2, so
    k1.x = w1 (s1 + c s2) and k2.x = w2 (c s1 + s2) with c = khat1.khat2;
    standing waves at the cavity coordinate s1 (``s2`` is unused).
    """
    if g.kind == "standing":
        return _standing_rho(m, g, s1, t)
    c = g.cosangle
    return _traveling_rho(m, g, g.omega1 * (s1 + c * s2), g.omega2 * (c * s1 + s2), t)


def _span_x(g: ModeGeometry, s1, s2=0.0) -> np.ndarray:
    """Cartesian x of span coordinates, on a trailing axis of length 3."""
    if g.kind == "standing":
        s1 = np.asarray(s1, dtype=float)
        return np.stack([s1, np.zeros_like(s1), np.zeros_like(s1)], axis=-1)
    return np.multiply.outer(s1, _KHAT1) + np.multiply.outer(s2, _khat2(g))


def _scan(m: TwoModeMoments, g: ModeGeometry, window: float, grid_n: int):
    """The scan axis over [0, window] and the density on the grid it spans.

    The grid has axes (t, s1[, s2]): skew traveling modes
    (|khat1.khat2| != 1) span a plane and get two spatial axes; parallel and
    standing modes need one.  The spatial axes come from a sparse meshgrid
    and the density is filled one t slab at a time, so only the density
    itself has the full grid's size.
    """
    axis = np.linspace(0.0, window, grid_n)
    skew = g.kind == "traveling" and abs(abs(g.cosangle) - 1.0) >= 1e-12
    dims = 3 if skew else 2
    t, *space = np.meshgrid(*[axis] * dims, indexing="ij", sparse=True)
    vals = np.empty((grid_n,) * dims)
    for i in range(grid_n):
        vals[i] = _span_rho(m, g, t[i : i + 1], *space)[0]
    return axis, vals


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
    """The scan axis, the density grid and the polished minimum (point, value)."""
    if grid_n < 16:
        raise ValueError("grid_n must be at least 16")
    if window <= 0:
        raise ValueError("window must be positive")
    if not _moments_finite(m):
        raise ValueError("non-finite moments")

    with np.errstate(all="ignore"):
        axis, vals = _scan(m, g, window, grid_n)
    if not np.isfinite(vals).all():
        raise FloatingPointError("density is not finite on the scan grid")
    # The first minimum in C order: the smallest t, then the smallest span coordinates.
    i = np.unravel_index(np.argmin(vals), vals.shape)
    best, best_val = axis[list(i)], float(vals[i])

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
    return axis, vals, (SpacetimePoint(x=(float(x[0]), float(x[1]), float(x[2])), t=float(best[0])), best_val)


def rho_min_two_mode_numeric(
    m: TwoModeMoments, g: ModeGeometry, window: float, grid_n: int
) -> tuple[SpacetimePoint, float]:
    """Numeric minimum of the density over x in the wave-vector span, t in [0, window].

    A dense grid scan (``grid_n`` points per axis, ties broken toward the
    smallest t then the smallest spatial coordinates) seeds a Nelder-Mead
    polish; the polished value is kept only if it improves on the best
    sample, so the result is always <= every sampled value.
    """
    return _scan_and_polish(m, g, window, grid_n)[2]


def density_profile(
    m: TwoModeMoments, g: ModeGeometry, window: float, grid_n: int
) -> DensityProfile:
    """The density on the scan grid plus the refined minimum, for data export.

    The grid is the minimizer's own scan, so the minimum is <= every grid
    value exactly.
    """
    axis, vals, min_found = _scan_and_polish(m, g, window, grid_n)
    space = _span_x(g, *np.meshgrid(*[axis] * (vals.ndim - 1), indexing="ij")).reshape(-1, 3)
    return DensityProfile(t=axis, space=space, rho=vals.reshape(grid_n, -1), min_found=min_found)


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
