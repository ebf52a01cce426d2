"""Multi-start projected gradient ascent for F = R - n over a state family.

F is the excess of the pair-moment magnitude over the occupation; its maximum
sets the deepest attainable energy density for the family.  The search is a
plain box-constrained ascent: finite-difference gradient, projection at the
bounds, Armijo backtracking line search, restarted from seeded uniform draws
and deduplicated by clustering.  Every start draws from its own RNG stream
keyed by (seed, start index), so results are reproducible no matter how the
starts are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .state_families import (
    REGISTRY,
    SEARCHES,
    TWO_PI,
    DegenerateStateError,
    OneModeMoments,
    TwoModeMoments,
)

# The search reaches closed forms through REGISTRY.  This name stays bound here
# for code that looks the coherent-pair closed form up on this module, such as
# the rebinding checks in perfbench/tests.
from .state_families import coherent_superposition_moments  # noqa: F401

__all__ = [
    "AscentFailure",
    "SearchSpace",
    "SearchConfig",
    "Extremum",
    "MultiStartReport",
    "search_space",
    "coherent_pair_space",
    "vacuum_squeezed_space",
    "objective_F",
    "fd_gradient",
    "ascend",
    "multi_start",
]

#: Cluster radius (wrapped max-norm on canonicalized parameters) for dedup.
CLUSTER_RADIUS = 0.02


class AscentFailure(RuntimeError):
    """Raised when no objective value can be computed for a start."""


@dataclass(frozen=True)
class SearchSpace:
    """Box-bounded parameter space with a moments map.

    ``angular`` marks coordinates living on the circle: they are wrapped
    modulo 2 pi rather than clipped, and differenced on the circle.
    ``canonical`` (optional) maps a parameter vector to a symmetry-reduced
    representative before clustering.
    """

    family: str
    names: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    angular: tuple[bool, ...]
    moments_of: Callable[[np.ndarray], OneModeMoments | TwoModeMoments]
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
class SearchConfig:
    """Ascent hyper-parameters; defaults are deliberately conservative."""

    starts: int = 64
    seed: int = 0
    fd_step: float = 1e-5
    step_init: float = 0.1
    armijo_c: float = 1e-4
    grad_tol: float = 1e-7
    max_iters: int = 500

    def __post_init__(self) -> None:
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if not (0.0 < self.armijo_c < 1.0):
            raise ValueError("armijo_c must lie in (0, 1)")
        for name in ("fd_step", "step_init", "grad_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class Extremum:
    """One located stationary point (or boundary-pinned point) of F."""

    params: tuple[float, ...]
    F: float
    n: float
    R: float
    gamma: float
    grad_norm: float
    iterations: int
    converged: bool
    members: int = 1


@dataclass(frozen=True)
class MultiStartReport:
    """Deduplicated extrema, sorted by descending F, plus bookkeeping."""

    extrema: tuple[Extremum, ...]
    failed_starts: int
    starts: int
    seed: int


def _triple(m: OneModeMoments | TwoModeMoments) -> tuple[float, float, float]:
    if isinstance(m, OneModeMoments):
        return m.n, m.pair_mag, m.pair_phase
    return m.n1, m.R1, m.gamma1


def objective_F(space: SearchSpace, params: np.ndarray) -> float:
    """F = R - n at ``params``; degenerate states count as -inf for the search."""
    try:
        n, big_r, _ = _triple(space.moments_of(np.asarray(params, dtype=float)))
    except DegenerateStateError:
        return -math.inf
    return big_r - n


def fd_gradient(space: SearchSpace, params: np.ndarray, h: float) -> np.ndarray:
    """Central finite-difference gradient of F, scaled per coordinate.

    Step size is h * max(1, |p_i|).  Non-angular stencil points are kept
    inside the box by sliding toward the interior; if the objective fails on
    one side (degenerate state), the surviving one-sided difference is used
    instead.  Raises :class:`AscentFailure` when no stencil survives.
    """
    p = np.asarray(params, dtype=float)
    grad = np.zeros(space.dim)
    f_center: float | None = None
    for i in range(space.dim):
        step = h * max(1.0, abs(p[i]))
        pp, pm = p.copy(), p.copy()
        if space.angular[i]:
            pp[i] += step
            pm[i] -= step
        else:
            pp[i] = min(p[i] + step, space.upper[i])
            pm[i] = max(p[i] - step, space.lower[i])
        width = pp[i] - pm[i]
        if width <= 0.0:
            grad[i] = 0.0  # pinched coordinate (lower == upper)
            continue
        f_plus = objective_F(space, pp)
        f_minus = objective_F(space, pm)
        if math.isfinite(f_plus) and math.isfinite(f_minus):
            grad[i] = (f_plus - f_minus) / width
            continue
        if f_center is None:
            f_center = objective_F(space, p)
        if math.isfinite(f_plus) and math.isfinite(f_center):
            grad[i] = (f_plus - f_center) / (pp[i] - p[i])
        elif math.isfinite(f_minus) and math.isfinite(f_center):
            grad[i] = (f_center - f_minus) / (p[i] - pm[i])
        else:
            raise AscentFailure(f"gradient stencil failed on coordinate {space.names[i]}")
    return grad


def _project(space: SearchSpace, p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Zero ascent components that would push a bound-pinned coordinate outside."""
    proj = g.copy()
    for i in range(space.dim):
        if space.angular[i]:
            continue
        if p[i] <= space.lower[i] + 1e-12 and g[i] < 0.0:
            proj[i] = 0.0
        if p[i] >= space.upper[i] - 1e-12 and g[i] > 0.0:
            proj[i] = 0.0
    return proj


def ascend(space: SearchSpace, start: Sequence[float], cfg: SearchConfig) -> Extremum:
    """Projected gradient ascent with Armijo backtracking from one start.

    The accepted F sequence is monotone non-decreasing.  Terminates when the
    projected gradient norm falls below ``cfg.grad_tol`` (which covers
    boundary pinning), on iteration exhaustion, or when the line search
    stalls below machine-scale steps.
    """
    p = space.clamp(np.asarray(start, dtype=float))
    f = objective_F(space, p)
    if not math.isfinite(f):
        raise AscentFailure("objective undefined at the start point")

    iterations = 0
    converged = False
    grad_norm = math.inf
    for iterations in range(cfg.max_iters + 1):
        g = _project(space, p, fd_gradient(space, p, cfg.fd_step))
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= cfg.grad_tol:
            converged = True
            break
        if iterations == cfg.max_iters:
            break
        step = cfg.step_init
        accepted = False
        while step > 1e-14:
            q = space.clamp(p + step * g)
            fq = objective_F(space, q)
            if fq >= f + cfg.armijo_c * step * grad_norm**2:
                p, f, accepted = q, fq, True
                break
            step *= 0.5
        if not accepted:
            break  # line search exhausted: flat to machine precision

    n, big_r, gamma = _triple(space.moments_of(p))
    return Extremum(
        params=tuple(float(v) for v in p),
        F=f,
        n=n,
        R=big_r,
        gamma=gamma,
        grad_norm=grad_norm,
        iterations=iterations,
        converged=converged,
    )


def _wrapped_distance(space: SearchSpace, a: np.ndarray, b: np.ndarray) -> float:
    d = 0.0
    for i in range(space.dim):
        diff = abs(a[i] - b[i])
        if space.angular[i]:
            diff = min(diff, TWO_PI - diff)
        d = max(d, diff)
    return d


def multi_start(space: SearchSpace, cfg: SearchConfig) -> MultiStartReport:
    """Seeded multi-start ascent with symmetry-aware dedup.

    Start k draws its initial point from ``default_rng([seed, k])``; results
    are sorted by descending F (start index breaks ties) and clustered with
    radius ``CLUSTER_RADIUS`` after canonicalization, keeping the best member
    of each cluster as the representative.
    """
    lo = np.array(space.lower)
    hi = np.array(space.upper)
    results: list[tuple[float, int, Extremum]] = []
    failed = 0
    for k in range(cfg.starts):
        rng = np.random.default_rng([cfg.seed, k])
        p0 = lo + (hi - lo) * rng.uniform(size=space.dim)
        try:
            ext = ascend(space, p0, cfg)
        except AscentFailure:
            failed += 1
            continue
        results.append((-ext.F, k, ext))
    results.sort(key=lambda item: (item[0], item[1]))

    canonical = space.canonical or (lambda v: v)
    reps: list[tuple[np.ndarray, Extremum]] = []
    for _, _, ext in results:
        cp = canonical(space.clamp(np.array(ext.params)))
        for idx, (rep_cp, rep) in enumerate(reps):
            if _wrapped_distance(space, cp, rep_cp) <= CLUSTER_RADIUS:
                reps[idx] = (rep_cp, replace(rep, members=rep.members + 1))
                break
        else:
            reps.append((cp, ext))
    return MultiStartReport(
        extrema=tuple(rep for _, rep in reps),
        failed_starts=failed,
        starts=cfg.starts,
        seed=cfg.seed,
    )


# --------------------------------------------------------------------------
# Search spaces from the family registry
# --------------------------------------------------------------------------


def search_space(name: str) -> SearchSpace:
    """The registry's search view ``name`` (see :data:`SEARCHES`) as a space."""
    family_name, view = SEARCHES[name]
    moments, record = REGISTRY[family_name].moments, view.record
    return SearchSpace(
        family=family_name,
        names=view.names,
        lower=view.lower,
        upper=view.upper,
        angular=view.angular,
        moments_of=lambda p: moments(record(p)),
        canonical=view.canonical,
    )


def coherent_pair_space(free_delta1: bool = False) -> SearchSpace:
    """Coherent-pair space (|alpha|, |beta|, |eta|, delta2, delta); ``free_delta1`` adds delta1."""
    return search_space("coherent-pair-free" if free_delta1 else "coherent-pair")


def vacuum_squeezed_space() -> SearchSpace:
    """One-dimensional vacuum-plus-squeezed slice: search over r at eta = -1."""
    return search_space("vacuum-squeezed")
