"""Multi-start projected gradient ascent for F = R - n over a search view.

F is the excess of the pair-moment magnitude over the occupation; its maximum
sets the deepest attainable energy density for the family.  The objective
reads the moments' ``excess`` at each point of a
:class:`~subvacuum.state_families.SearchView` box.  The search is a
plain box-constrained ascent: finite-difference gradient, projection at the
bounds, Armijo backtracking line search, restarted from seeded uniform draws
and deduplicated by clustering.  Every start draws from its own RNG stream
keyed by (seed, start index), so results are reproducible no matter how the
starts are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .state_families import TWO_PI, DegenerateStateError, SearchView

# The search reaches closed forms through its SearchView.  This name stays
# bound here for code that looks the coherent-pair closed form up on this
# module, such as the rebinding checks in perfbench/tests.
from .state_families import coherent_superposition_moments  # noqa: F401

__all__ = [
    "AscentFailure",
    "SearchConfig",
    "Extremum",
    "MultiStartReport",
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


def objective_F(view: SearchView, params: np.ndarray) -> float:
    """The moments' ``excess`` F = R - n at ``params``; degenerate states count as -inf."""
    try:
        return view.moments_of(np.asarray(params, dtype=float)).excess
    except DegenerateStateError:
        return -math.inf


def fd_gradient(view: SearchView, params: np.ndarray, h: float) -> np.ndarray:
    """Central finite-difference gradient of F, scaled per coordinate.

    Step size is h * max(1, |p_i|).  Non-angular stencil points are kept
    inside the box by sliding toward the interior; if the objective fails on
    one side (degenerate state), the surviving one-sided difference is used
    instead.  Raises :class:`AscentFailure` when no stencil survives.
    """
    p = np.asarray(params, dtype=float)
    grad = np.zeros(view.dim)
    f_center: float | None = None
    for i in range(view.dim):
        step = h * max(1.0, abs(p[i]))
        pp, pm = p.copy(), p.copy()
        if view.angular[i]:
            pp[i] += step
            pm[i] -= step
        else:
            pp[i] = min(p[i] + step, view.upper[i])
            pm[i] = max(p[i] - step, view.lower[i])
        width = pp[i] - pm[i]
        if width <= 0.0:
            grad[i] = 0.0  # pinched coordinate (lower == upper)
            continue
        f_plus = objective_F(view, pp)
        f_minus = objective_F(view, pm)
        if math.isfinite(f_plus) and math.isfinite(f_minus):
            grad[i] = (f_plus - f_minus) / width
            continue
        if f_center is None:
            f_center = objective_F(view, p)
        if math.isfinite(f_plus) and math.isfinite(f_center):
            grad[i] = (f_plus - f_center) / (pp[i] - p[i])
        elif math.isfinite(f_minus) and math.isfinite(f_center):
            grad[i] = (f_center - f_minus) / (p[i] - pm[i])
        else:
            raise AscentFailure(f"gradient stencil failed on coordinate {view.names[i]}")
    return grad


def _project(view: SearchView, p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Zero ascent components that would push a bound-pinned coordinate outside."""
    proj = g.copy()
    for i in range(view.dim):
        if view.angular[i]:
            continue
        if p[i] <= view.lower[i] + 1e-12 and g[i] < 0.0:
            proj[i] = 0.0
        if p[i] >= view.upper[i] - 1e-12 and g[i] > 0.0:
            proj[i] = 0.0
    return proj


def ascend(view: SearchView, start: Sequence[float], cfg: SearchConfig) -> Extremum:
    """Projected gradient ascent with Armijo backtracking from one start.

    The accepted F sequence is monotone non-decreasing.  Terminates when the
    projected gradient norm falls below ``cfg.grad_tol`` (which covers
    boundary pinning), on iteration exhaustion, or when the line search
    stalls below machine-scale steps.
    """
    p = view.clamp(np.asarray(start, dtype=float))
    f = objective_F(view, p)
    if not math.isfinite(f):
        raise AscentFailure("objective undefined at the start point")

    iterations = 0
    converged = False
    grad_norm = math.inf
    for iterations in range(cfg.max_iters + 1):
        g = _project(view, p, fd_gradient(view, p, cfg.fd_step))
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= cfg.grad_tol:
            converged = True
            break
        if iterations == cfg.max_iters:
            break
        step = cfg.step_init
        accepted = False
        while step > 1e-14:
            q = view.clamp(p + step * g)
            fq = objective_F(view, q)
            if fq >= f + cfg.armijo_c * step * grad_norm**2:
                p, f, accepted = q, fq, True
                break
            step *= 0.5
        if not accepted:
            break  # line search exhausted: flat to machine precision

    m = view.moments_of(p)
    return Extremum(
        params=tuple(float(v) for v in p),
        F=f,
        n=m.n,
        R=m.pair_mag,
        gamma=m.pair_phase,
        grad_norm=grad_norm,
        iterations=iterations,
        converged=converged,
    )


def _wrapped_distance(view: SearchView, a: np.ndarray, b: np.ndarray) -> float:
    d = 0.0
    for i in range(view.dim):
        diff = abs(a[i] - b[i])
        if view.angular[i]:
            diff = min(diff, TWO_PI - diff)
        d = max(d, diff)
    return d


def multi_start(view: SearchView, cfg: SearchConfig) -> MultiStartReport:
    """Seeded multi-start ascent with symmetry-aware dedup.

    Start k draws its initial point from ``default_rng([seed, k])``; results
    are sorted by descending F (start index breaks ties) and clustered with
    radius ``CLUSTER_RADIUS`` after canonicalization, keeping the best member
    of each cluster as the representative.
    """
    lo = np.array(view.lower)
    hi = np.array(view.upper)
    results: list[tuple[float, int, Extremum]] = []
    failed = 0
    for k in range(cfg.starts):
        rng = np.random.default_rng([cfg.seed, k])
        p0 = lo + (hi - lo) * rng.uniform(size=view.dim)
        try:
            ext = ascend(view, p0, cfg)
        except AscentFailure:
            failed += 1
            continue
        results.append((-ext.F, k, ext))
    results.sort(key=lambda item: (item[0], item[1]))

    canonical = view.canonical or (lambda v: v)
    reps: list[tuple[np.ndarray, Extremum]] = []
    for _, _, ext in results:
        cp = canonical(view.clamp(np.array(ext.params)))
        for idx, (rep_cp, rep) in enumerate(reps):
            if _wrapped_distance(view, cp, rep_cp) <= CLUSTER_RADIUS:
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
