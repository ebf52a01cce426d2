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
Rk is exactly 0.  The one numeric minimizer, ``density_profile``, scans the
wave-vector span (the density depends on x only through the k.x phases) and
time one t slab at a time, then polishes with an unbounded Nelder-Mead
refinement, and ``rho_min_two_mode_numeric`` reads its minimum.  Span
coordinates become Cartesian points, and one map takes a point to its formula
for the scan, polish, export and ``rho_two_mode``: each exported sample and
the minimum are ``rho_two_mode`` at their printed point.
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
    """The scan grid of a density plus its polished minimum, which may lie off the grid.

    The grid is the product of the times ``t`` (grid_n,) and the spatial
    points ``space`` (M, 3), the Cartesian x of each spatial grid point in
    lexicographic order of its span coordinates.  M is grid_n**2 for skew
    traveling modes and grid_n otherwise.  The density itself is not kept:
    :meth:`slabs` recomputes it one t at a time, bit for bit the values the
    scan checked, from ``moments`` and ``geometry`` at ``space``.
    """

    t: np.ndarray
    space: np.ndarray
    min_found: tuple[SpacetimePoint, float]
    moments: TwoModeMoments
    geometry: ModeGeometry

    def slabs(self) -> Iterator[np.ndarray]:
        """The density at each t in turn, over the (M,) spatial points."""
        return _slabs(self.moments, self.geometry, self.t, self.space)

    @property
    def samples(self) -> np.ndarray:
        """(N, 5) rows of x1, x2, x3, t, rho in (t, space...) order: the one stacked view of the slabs."""
        n, m = len(self.t), len(self.space)
        return np.column_stack([np.tile(self.space, (n, 1)), np.repeat(self.t, m), np.concatenate(list(self.slabs()))])


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


def _formula(g: ModeGeometry, x):
    """The mode kind's formula and its spatial arguments at Cartesian x = (x1, x2, x3), numbers or arrays.

    Standing waves read the cavity coordinate x1; traveling waves the phases
    k1.x = w1 x3 and k2.x = w2 (sqrt(1 - c^2) x1 + c x3).
    """
    x1, _, x3 = x
    if g.kind == "standing":
        return _standing_rho, (x1,)
    sx, _, c = _khat2(g)
    return _traveling_rho, (g.omega1 * x3, g.omega2 * (sx * x1 + c * x3))


def _span_x(g: ModeGeometry, s1, s2=0.0):
    """Cartesian (x1, x2, x3) of span coordinates (numbers or arrays): the one map from span to space.

    Traveling waves sit at x = s1 khat1 + s2 khat2, summed component by
    component with the zero products kept, so signed zeros come out as that
    sum gives them; standing waves at the cavity coordinate x1 = s1.
    """
    if g.kind == "standing":
        return s1, 0.0 * s1 + 0.0, 0.0 * s1 + 0.0
    sx, _, c = _khat2(g)
    return s1 * 0.0 + s2 * sx, s1 * 0.0 + s2 * 0.0, s1 + s2 * c


def _span_axes(g: ModeGeometry) -> int:
    """Spatial scan axes: skew traveling modes (|khat1.khat2| != 1) span a plane, the rest a line."""
    return 2 if g.kind == "traveling" and abs(abs(g.cosangle) - 1.0) >= 1e-12 else 1


def _slabs(m: TwoModeMoments, g: ModeGeometry, axis: np.ndarray, space: np.ndarray) -> Iterator[np.ndarray]:
    """The density at each t in ``axis`` over the (M, 3) points ``space``, one (M,) slab at a time."""
    with np.errstate(all="ignore"):
        formula, spatial = _formula(g, space.T)
    for t in axis:
        with np.errstate(all="ignore"):  # a non-finite slab is the scan's to refuse
            slab = formula(m, g, *spatial, t)
        yield slab


def rho_two_mode(m: TwoModeMoments, g: ModeGeometry, p: SpacetimePoint) -> float:
    """Density at an explicit spacetime point; standing waves read only p.x[0].

    Raises ``FloatingPointError`` when the density there is not finite.
    """
    with np.errstate(all="ignore"):
        formula, spatial = _formula(g, p.x)
        rho = float(formula(m, g, *spatial, p.t))
    if not math.isfinite(rho):
        raise FloatingPointError("density is not finite at this point")
    return rho


def _moments_finite(m: TwoModeMoments) -> bool:
    vals = (m.n1, m.n2, m.R1, m.R2, m.R3, m.R4, m.gamma1, m.gamma2, m.gamma3, m.gamma4)
    return all(map(math.isfinite, vals))


def rho_min_two_mode_numeric(
    m: TwoModeMoments, g: ModeGeometry, window: float, grid_n: int
) -> tuple[SpacetimePoint, float]:
    """``density_profile(m, g, window, grid_n).min_found``: the density's numeric minimum.

    The scan covers [0, window] in t and each span coordinate; the polish is
    unbounded, so from a best sample on the window's edge it can end outside.
    """
    return density_profile(m, g, window, grid_n).min_found


def density_profile(
    m: TwoModeMoments, g: ModeGeometry, window: float, grid_n: int
) -> DensityProfile:
    """The one scan and polish: the scan grid plus the refined minimum, for data export.

    The scan takes ``grid_n`` points on [0, window] along t and each span
    coordinate, walks the t slabs once, refusing the first that is not
    finite, and keeps the first minimum in C order (the smallest t, then the
    smallest span coordinates): the first within a slab by ``argmin``, and a
    later slab only by a strictly smaller value.  The unbounded Nelder-Mead
    polish from there is kept only if it improves on the best sample, so the
    minimum is <= every grid value, which the slabs recompute bit for bit.
    """
    if grid_n < 16:
        raise ValueError("grid_n must be at least 16")
    if window <= 0:
        raise ValueError("window must be positive")
    if not _moments_finite(m):
        raise ValueError("non-finite moments")

    # Overflow is expected here: linspace sets a last point past the largest
    # float to the window itself, and a skew point's x3 = s1 + c s2 becomes inf.
    with np.errstate(over="ignore"):
        axis = np.linspace(0.0, window, grid_n)
        space = np.stack(_span_x(g, *np.meshgrid(*[axis] * _span_axes(g), indexing="ij")), axis=-1).reshape(-1, 3)
    best_val, best = math.inf, None
    for i, slab in enumerate(_slabs(m, g, axis, space)):
        if not np.isfinite(slab).all():
            raise FloatingPointError("density is not finite on the scan grid")
        j = int(np.argmin(slab))
        if slab[j] < best_val:
            best_val, best = float(slab[j]), (i, *np.unravel_index(j, (grid_n,) * _span_axes(g)))
    best = axis[list(best)]

    def objective(q) -> float:
        # Trial points past the window can overflow: a non-finite value
        # counts as +inf, so it never displaces the scan minimum.
        formula, spatial = _formula(g, _span_x(g, *q[1:]))
        value = float(formula(m, g, *spatial, q[0]))
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
    point = SpacetimePoint(x=tuple(map(float, _span_x(g, *best[1:]))), t=float(best[0]))
    return DensityProfile(t=axis, space=space, min_found=(point, best_val), moments=m, geometry=g)


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
