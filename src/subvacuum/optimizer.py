"""Multi-start L-BFGS-B search for the largest F = R - n over a search view.

F is the excess of the pair-moment magnitude over the occupation; its maximum
sets the deepest attainable energy density for the family.  The objective
reads the moments' ``excess`` at each point of a
:class:`~subvacuum.state_families.SearchView` box.  Each start is an L-BFGS-B
run (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16 (1995) 1190) on -F,
driven by reverse communication through scipy's ``setulb`` as scipy's own
``minimize(method="L-BFGS-B")`` drives it, so a run is bit for bit that
``minimize`` run.  Its gradient is scipy's two-point forward difference,
evaluated as a stencil: the point and its forward steps.  The starts run up
to 64 at a time in lockstep: each round advances every live run to the next
point it needs, and one closed-form call evaluates all their stencils; one
more reads the moments at every end point.  Non-angular coordinates take the
box as bounds; angular ones are unbounded and wrapped by ``SearchView.clamp``.
Starts are seeded uniform draws, deduplicated by clustering.  Every start
draws from its own RNG stream keyed by (seed, start index), and no run sees
another's, so results do not depend on how the starts are scheduled.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.optimize import _lbfgsb

from .state_families import TWO_PI, SearchView

# The search reaches closed forms through its SearchView.  This name stays
# bound here for code that looks the coherent-pair closed form up on this
# module, such as the rebinding checks in perfbench/tests.
from .state_families import coherent_superposition_moments  # noqa: F401

__all__ = ["Extremum", "MultiStartReport", "objective_F", "multi_start"]

#: Cluster radius (wrapped max-norm on canonicalized parameters) for dedup.
CLUSTER_RADIUS = 0.02

#: Forward-difference step: L-BFGS-B's default ``eps``, which scipy takes
#: as an absolute step for its two-point gradient.
_FD_STEP = 1e-8

#: Bound on the projected gradient norm of a converged point.  The
#: forward-difference gradient errs by about _FD_STEP |F''| / 2, just below it.
GRAD_TOL = 1e-7

#: Cap on the L-BFGS-B iterations of one start.
MAX_ITERS = 500

#: L-BFGS-B's corrections kept, line-search steps and evaluation cap, at
#: scipy's ``minimize`` defaults.
_M, _MAXLS, _MAXFUN = 10, 20, 15_000

#: Runs in lockstep at once, the default number of starts.  Each holds a
#: 10 KB L-BFGS-B workspace and its memo, while a few long runs set the
#: number of rounds: at seed 42, all 64 at once take 526 rounds (four at once
#: 843) and the search's heap peaks 1.2 MB above its start (0.3 MB).
_WIDTH = 64


@dataclass(frozen=True)
class Extremum:
    """Where one start's L-BFGS-B run on -F ended, with its moments.

    ``converged`` needs both L-BFGS-B's success and a projected gradient norm
    ``grad_norm`` of at most ``GRAD_TOL`` there.  A run that asks for F at a
    degenerate state ends at its last finite iterate, unconverged, with an
    unknown (``None``) gradient norm; so does a run whose unbounded angle
    grew so large that the difference step no longer changes it (where F is
    flat in that phase).  The result is never below the start: each iterate
    L-BFGS-B accepts has F at least that of the one before, and a run ends at
    its start or at one of them.
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
    """Deduplicated extrema, sorted by descending F, and the number of starts
    where F is undefined."""

    extrema: tuple[Extremum, ...]
    failed_starts: int


def objective_F(view: SearchView, params: np.ndarray):
    """The moments' ``excess`` F = R - n at ``params`` (one vector, or one per
    row); degenerate states count as -inf."""
    m = view.moments_of(np.asarray(params, dtype=float))
    return np.where(m.degenerate, -np.inf, m.excess)[()]


def _stencils(view: SearchView, points: Sequence[np.ndarray]) -> list[tuple[float, np.ndarray | None]]:
    """-F at each of ``points`` and its gradient, None where that is
    undefined, from one closed-form call over every point's stencil.

    A stencil is the point and its ``dim`` steps of +_FD_STEP, each flipped
    inward where it would pass the upper bound (the point is in the box):
    scipy's own two-point gradient for L-BFGS-B.  A degenerate row, or an
    angle so large that the step no longer changes it, leaves it undefined.
    The stencils of all points are built, evaluated and differenced as whole
    arrays, each point's entries exactly what its own stencil would give.
    """
    x = np.array(points)
    count, dim = x.shape
    h = np.where(x + _FD_STEP > view.hi, -_FD_STEP, _FD_STEP)
    rows, steps = np.empty((count, dim + 1, dim)), np.zeros((count, dim, dim))
    steps.reshape(count, -1)[:, :: dim + 1] = h
    rows[:, 0] = x
    np.add(x[:, None], steps, out=rows[:, 1:])  # off the diagonal x + 0.0, where -0.0 becomes 0.0
    negs = -objective_F(view, view.clamp(rows.reshape(-1, dim))).reshape(count, dim + 1)
    step = (x + h) - x
    finite = (np.isfinite(negs).all(axis=1) & (step != 0.0).all(axis=1)).tolist()
    with np.errstate(divide="ignore", invalid="ignore"):
        grads = (negs[:, 1:] - negs[:, :1]) / step
    return [(f, grad if ok else None) for f, grad, ok in zip(negs[:, 0].tolist(), grads, finite)]


def _ascent(view: SearchView, start: Sequence[float]):
    """One start's L-BFGS-B run on -F as a generator: it yields each point
    whose stencil it needs, is sent that point's entry of :func:`_stencils`,
    and returns the :class:`Extremum`'s end point, F, ``grad_norm``,
    ``iterations`` and ``converged``, or None where F at the start is
    undefined.

    The loop is scipy 1.17.1's ``_minimize_lbfgsb`` around ``setulb``, as
    ``minimize(method="L-BFGS-B")`` runs it with factr = 0 and pgtol =
    GRAD_TOL / sqrt(dim), which bounds the projected gradient's 2-norm by
    GRAD_TOL, except that F is read at the returned point.  No point is
    evaluated twice in one run: F at the start is row 0 of its first
    stencil, and every stencil is kept by the exact bytes of its point,
    since L-BFGS-B revisits points on the box edges.
    """
    evaluated: dict[bytes, tuple[float, np.ndarray | None]] = {}

    def evaluate(x: np.ndarray):
        key = x.tobytes()
        if key not in evaluated:
            evaluated[key] = yield x
        return evaluated[key]

    p0 = view.clamp(np.asarray(start, dtype=float))
    f0 = -(yield from evaluate(p0))[0]
    if not math.isfinite(f0):
        return None

    lo, hi, n = view.lo, view.hi, view.dim
    x = np.clip(p0, lo, hi)  # minimize's x0
    low, up = np.isfinite(lo), np.isfinite(hi)
    nbd = [lb + ub if lb else 3 * ub for lb, ub in zip(low.tolist(), up.tolist())]  # 0 none, 1 lower, 2 both, 3 upper
    bounds = np.where(low, lo, 0.0), np.where(up, hi, 0.0), np.array(nbd, np.int32)
    wa, dsave = np.zeros(2 * _M * n + 5 * n + 11 * _M * _M + 8 * _M), np.zeros(29)
    iwa, task, lsave, isave, ln_task = (np.zeros(size, np.int32) for size in (3 * n, 2, 4, 44, 2))
    pgtol = GRAD_TOL / math.sqrt(n)

    # scipy's ScalarFunction evaluates F and g at x0 and reuses the last
    # point's pair while x is array_equal to it; its loop starts from f = 0
    # and g = 0, and checks the iteration and evaluation caps at each new x.
    seen, fg = x.copy(), (yield from evaluate(x))
    f, g, nfev = 0.0, np.zeros(n), 1
    last, iterations = p0, 0  # the last iterate as L-BFGS-B reports it, unclamped
    while fg[1] is not None:
        g = g.astype(np.float64)
        _lbfgsb.setulb(_M, x, *bounds, f, g, 0.0, pgtol, wa, iwa, task, lsave, isave, dsave, _MAXLS, ln_task)
        if task[0] == 3:  # F and g at x
            if not (x == seen).all():
                seen, fg = x.copy(), (yield from evaluate(x))
                nfev += 1
            f, g = fg
        elif task[0] == 1:  # a new iterate
            last, iterations = x.copy(), iterations + 1
            if iterations >= MAX_ITERS:
                task[:] = 5, 504
            elif nfev > _MAXFUN:
                task[:] = 5, 502
        else:
            break

    if fg[1] is None:  # the gradient is undefined: end at the last iterate, evaluated already
        p, f, grad_norm = last if last is p0 else view.clamp(last), -(yield from evaluate(last))[0], None
    else:  # F read at x: setulb restores x and g after a failed line search, but not f
        p, f = view.clamp(x), -(yield from evaluate(x))[0]
        grad_norm = float(np.linalg.norm(np.where(((p <= lo) & (g > 0.0)) | ((p >= hi) & (g < 0.0)), 0.0, g)))
    converged = fg[1] is not None and bool(task[0] == 4) and grad_norm <= GRAD_TOL
    return p, f, grad_norm, iterations, converged


def _lockstep(view: SearchView, starts: Sequence[Sequence[float]]) -> list[Extremum | None]:
    """Every start's :func:`_ascent`, up to ``_WIDTH`` of them at a time in
    lockstep: each round advances every live run to its next unevaluated
    point, and one closed-form call evaluates all their stencils.  A finished
    run's place goes to the next start in the following round.  One last
    closed-form call reads the moments at every end point.  Returns each
    start's Extremum, or None where F at its start is undefined."""
    ends: list = [None] * len(starts)
    runs, sends = {}, {}  # the live runs, and what each is sent next
    queue = iter(range(len(starts)))
    while True:
        for k in itertools.islice(queue, _WIDTH - len(runs)):
            runs[k], sends[k] = _ascent(view, starts[k]), None
        if not runs:
            break
        asks = {}
        for k, value in sends.items():
            try:
                asks[k] = runs[k].send(value)
            except StopIteration as done:
                ends[k] = done.value
                del runs[k]
        sends = dict(zip(asks, _stencils(view, list(asks.values())))) if asks else {}

    finished = [k for k, end in enumerate(ends) if end is not None]
    if finished:
        m = view.moments_of(np.array([ends[k][0] for k in finished]))
        columns = (np.broadcast_to(v, len(finished)).tolist() for v in (m.n1, m.R1, m.gamma1))
        for k, n, R, gamma in zip(finished, *columns):
            p, f, grad_norm, iterations, converged = ends[k]
            ends[k] = Extremum(tuple(p.tolist()), f, n, R, gamma, grad_norm, iterations, converged)
    return ends


def multi_start(view: SearchView, starts: int, seed: int) -> MultiStartReport:
    """Seeded multi-start ascent with symmetry-aware dedup.

    Start k of ``starts`` draws its initial point from
    ``default_rng([seed, k])``; results are sorted by descending F (start
    index breaks ties) and clustered with radius ``CLUSTER_RADIUS`` after
    canonicalization, keeping the best member of each cluster as the
    representative.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    lo, hi = np.array(view.lower), np.array(view.upper)
    draws = [lo + (hi - lo) * np.random.default_rng([seed, k]).uniform(size=view.dim) for k in range(starts)]
    # A stable sort: the start index breaks ties.
    results = sorted((ext for ext in _lockstep(view, draws) if ext is not None), key=lambda ext: -ext.F)

    canonical = view.canonical or (lambda v: v)
    # The representatives' canonical points, and the candidate's in the next row.
    cps, reps = np.empty((len(results), view.dim)), []
    for ext in results:
        cps[len(reps)] = canonical(view.clamp(np.array(ext.params)))
        diff = np.abs(cps[: len(reps)] - cps[len(reps)])
        near = np.flatnonzero(np.where(view.wraps, np.minimum(diff, TWO_PI - diff), diff).max(axis=1) <= CLUSTER_RADIUS)
        if near.size:  # the first representative within the radius takes it
            i = near[0]
            reps[i] = replace(reps[i], members=reps[i].members + 1)
        else:
            reps.append(ext)
    return MultiStartReport(extrema=tuple(reps), failed_starts=starts - len(results))
