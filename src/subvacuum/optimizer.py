"""Multi-start L-BFGS-B search for the largest F = R - n over a search view.

F is the excess of the pair-moment magnitude over the occupation; its maximum
sets the deepest attainable energy density for the family.  The objective
reads the moments' ``excess`` at each point of a
:class:`~subvacuum.state_families.SearchView` box.  Each start is one
``scipy.optimize.minimize`` run with L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM
J. Sci. Comput. 16 (1995) 1190) on -F.  Its gradient is scipy's own
two-point forward difference, evaluated as one batch: the point and its
forward stencil are the rows of one closed-form call, made once per point of
a run.  Non-angular coordinates take the box as bounds; angular ones are
unbounded and wrapped by ``SearchView.clamp``.  Starts are seeded uniform draws, deduplicated by
clustering.  Every start draws from its own RNG stream keyed by (seed, start
index), so results are reproducible no matter how the starts are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy import optimize

from .state_families import TWO_PI, SearchView

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


class _RunEnded(Exception):
    """Stops an L-BFGS-B run where its gradient is undefined."""


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
    run stopped where its gradient is undefined or fell back to its start.
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
    unknown (``None``) gradient norm; so does a run whose unbounded angle
    grew so large that the difference step no longer changes it (where F is
    flat in that phase).  The result is never below the start.  No point is
    evaluated twice in one run: F at the start is row 0 of its first
    gradient stencil, and every stencil is kept by the exact bytes of its
    point, since L-BFGS-B revisits points on the box edges.
    """
    p0 = view.clamp(np.asarray(start, dtype=float))
    lo, hi = view.lo, view.hi
    rows, steps = np.empty((view.dim + 1, view.dim)), np.zeros((view.dim, view.dim))  # a stencil, its steps
    evaluated: dict[bytes, tuple[float, np.ndarray | None]] = {}

    def evaluate(x: np.ndarray) -> tuple[float, np.ndarray | None]:
        # -F at x and its gradient, None where that is undefined; once per
        # point.  Row 0 of the batch is x; row i + 1 steps coordinate i by
        # +_FD_STEP, flipped inward where it would pass the upper bound (x is
        # in the box: L-BFGS-B evaluates no point outside it).  These steps
        # and quotients are scipy's own two-point gradient for L-BFGS-B, so
        # the runs match it.
        key = x.tobytes()
        if key not in evaluated:
            h = np.where(x + _FD_STEP > hi, -_FD_STEP, _FD_STEP)
            steps.flat[:: view.dim + 1] = h
            rows[0] = x
            np.add(x, steps, out=rows[1:])  # off the diagonal x + 0.0, where -0.0 becomes 0.0
            neg = -objective_F(view, view.clamp(rows))
            # A degenerate stencil row, or an angle so large that the step
            # no longer changes it, leaves the quotient undefined.  Counting
            # nonzeros is the cheapest all() over a few rows.
            step = (x + h) - x
            finite = np.count_nonzero(np.isfinite(neg)) == neg.size and np.count_nonzero(step) == step.size
            grad = (neg[1:] - neg[0]) / step if finite else None
            evaluated[key] = neg[0], grad
        return evaluated[key]

    def defined(x: np.ndarray) -> tuple[float, np.ndarray]:
        neg_f, grad = evaluate(x)
        if grad is None:
            raise _RunEnded("the gradient is undefined here")
        return neg_f, grad

    f0 = -evaluate(p0)[0]
    if not math.isfinite(f0):
        raise AscentFailure("objective undefined at the start point")

    iterates = [p0]  # then each iterate as L-BFGS-B reports it, unclamped
    # gtol bounds the max-norm, so grad_tol / sqrt(dim) bounds the 2-norm by
    # grad_tol; ftol = 0 leaves stopping to that gradient test.
    options = {"maxiter": cfg.max_iters, "gtol": cfg.grad_tol / math.sqrt(view.dim), "ftol": 0.0}
    try:
        # Called through the module: a bound ``minimize`` name here would be
        # taken by the benchmark tracer for energy_density's polish.
        res = optimize.minimize(
            lambda x: defined(x)[0], p0, jac=lambda x: defined(x)[1], method="L-BFGS-B",
            bounds=optimize.Bounds(lo, hi), callback=lambda xk: iterates.append(xk), options=options,
        )
    except _RunEnded:
        last = iterates[-1]  # p0 or a line-search point: evaluated already
        p, f = last if last is p0 else view.clamp(last), -evaluate(last)[0]
        iterations, grad_norm, converged = len(iterates) - 1, None, False
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
        n=float(m.n1),
        R=float(m.R1),
        gamma=float(m.gamma1),
        grad_norm=grad_norm,
        iterations=iterations,
        converged=converged,
    )


def _wrapped_distance(view: SearchView, a: np.ndarray, b: np.ndarray) -> float:
    diff = np.abs(a - b)
    return float(np.max(np.where(view.wraps, np.minimum(diff, TWO_PI - diff), diff)))


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
