"""Multi-start L-BFGS-B search for the largest F = R - n over a search view.

F is the excess of the pair-moment magnitude over the occupation; its maximum
sets the deepest attainable energy density for the family.  The objective
reads the moments' ``excess`` at each point of a
:class:`~subvacuum.state_families.SearchView` box.  Each start is one
``scipy.optimize.minimize`` run with L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM
J. Sci. Comput. 16 (1995) 1190) on -F.  Its gradient is scipy's own
two-point forward difference, evaluated as one batch: the point and its
forward stencil are the rows of one closed-form call.  Non-angular
coordinates take the box as bounds; angular ones are unbounded and wrapped
by ``SearchView.clamp``.  Starts are seeded uniform draws, deduplicated by
clustering.  Every start draws from its own RNG stream keyed by (seed, start
index), so results are reproducible no matter how the starts are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy import optimize

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
    "ascend",
    "multi_start",
]

#: Cluster radius (wrapped max-norm on canonicalized parameters) for dedup.
CLUSTER_RADIUS = 0.02

#: Forward-difference step: L-BFGS-B's default ``eps``, which scipy takes
#: as an absolute step for its two-point gradient.
_FD_STEP = 1e-8


class AscentFailure(RuntimeError):
    """Raised when no objective value can be computed for a start."""


@dataclass(frozen=True)
class SearchConfig:
    """Search settings.

    ``grad_tol`` bounds the projected gradient norm of a converged point;
    ``max_iters`` caps the L-BFGS-B iterations of one start.
    """

    starts: int = 64
    seed: int = 0
    grad_tol: float = 1e-7
    max_iters: int = 500

    def __post_init__(self) -> None:
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class Extremum:
    """Where one start's run ended, with its moments.

    ``grad_norm`` is the projected gradient norm there, or ``None`` when the
    run stopped at a degenerate state or fell back to its start.
    """

    params: tuple[float, ...]
    F: float
    n: float
    R: float
    gamma: float
    grad_norm: float | None
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


def objective_F(view: SearchView, params: np.ndarray):
    """The moments' ``excess`` F = R - n at ``params`` (one vector, or one per
    row); degenerate states count as -inf."""
    m = view.moments_of(np.asarray(params, dtype=float))
    return np.where(m.degenerate, -np.inf, m.excess)[()]


def ascend(view: SearchView, start: Sequence[float], cfg: SearchConfig) -> Extremum:
    """One L-BFGS-B run on -F from ``start``.

    ``converged`` needs both L-BFGS-B's success and a projected gradient norm
    at most ``cfg.grad_tol`` at the returned point.  A run that asks for F at
    a degenerate state ends at its last finite iterate, unconverged, with an
    unknown (``None``) gradient norm.  The result is never below the start.
    """
    p0 = view.clamp(np.asarray(start, dtype=float))
    f0 = objective_F(view, p0)
    if not math.isfinite(f0):
        raise AscentFailure("objective undefined at the start point")

    iterates = [p0]
    angular = np.array(view.angular)
    lo = np.where(angular, -np.inf, view.lower)
    hi = np.where(angular, np.inf, view.upper)

    def neg_f_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        # Row 0 is x; row i + 1 steps coordinate i by +_FD_STEP, flipped
        # inward where it would leave the box.  These steps and quotients are
        # scipy's own two-point gradient for L-BFGS-B, so the runs match it.
        h = np.where((x + _FD_STEP < lo) | (x + _FD_STEP > hi), -_FD_STEP, _FD_STEP)
        neg = -objective_F(view, view.clamp(np.vstack([x, x + np.diag(h)])))
        if not np.isfinite(neg).all():
            raise DegenerateStateError("the line search reached a degenerate state")
        return neg[0], (neg[1:] - neg[0]) / ((x + h) - x)

    # gtol bounds the max-norm, so grad_tol / sqrt(dim) bounds the 2-norm by
    # grad_tol; ftol = 0 leaves stopping to that gradient test.
    options = {"maxiter": cfg.max_iters, "gtol": cfg.grad_tol / math.sqrt(view.dim), "ftol": 0.0}
    try:
        # Called through the module: a bound ``minimize`` name here would be
        # taken by the benchmark tracer for energy_density's polish.
        res = optimize.minimize(
            neg_f_and_grad, p0, jac=True, method="L-BFGS-B", bounds=optimize.Bounds(lo, hi),
            callback=lambda xk: iterates.append(view.clamp(xk)), options=options,
        )
    except DegenerateStateError:
        p, iterations = iterates[-1], len(iterates) - 1
        f, grad_norm, converged = objective_F(view, p), None, False
    else:
        p, f, iterations = view.clamp(res.x), -float(res.fun), int(res.nit)
        g = np.where(((p <= lo) & (res.jac > 0.0)) | ((p >= hi) & (res.jac < 0.0)), 0.0, res.jac)
        grad_norm = float(np.linalg.norm(g))
        converged = bool(res.success) and grad_norm <= cfg.grad_tol
    if f < f0:
        p, f, grad_norm, converged = p0, f0, None, False

    m = view.moments_of(p)
    return Extremum(
        params=tuple(float(v) for v in p),
        F=float(f),
        n=float(m.n),
        R=float(m.pair_mag),
        gamma=float(m.pair_phase),
        grad_norm=grad_norm,
        iterations=iterations,
        converged=converged,
    )


def _wrapped_distance(view: SearchView, a: np.ndarray, b: np.ndarray) -> float:
    diff = np.abs(a - b)
    return float(np.max(np.where(view.angular, np.minimum(diff, TWO_PI - diff), diff)))


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
