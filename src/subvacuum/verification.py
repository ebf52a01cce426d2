"""Randomized cross-validation of every closed-form moment against the oracle.

Every :data:`~subvacuum.state_families.REGISTRY` family with an ``oracle``
is verified.  Its parameters are drawn from a seeded stream, uniformly in
the ranges its ``draws`` gives, one array of candidates per round, and
candidates whose normalization denominator is nearly zero are redrawn.  Each
state is built in the truncated number basis at the first doubling cutoff
where its own tail mass is at most 1e-12, and every closed-form moment must
agree with the brute-force value to max(1e-8, 10 x tail mass).  A family's
draws are evaluated as batches throughout: one closed-form call, and one
oracle build per cutoff level (:func:`fock_oracle.fits`, in blocks of
bounded size) for all the draws still unresolved at that level.

A second report checks the hyperbolic matrix-element identities used inside
the closed forms (squeezed-squeezed and squeezed-coherent overlaps and ladder
moments) at fixed squeeze values, including a side-by-side comparison of the
two published variants of the cross pair moment's denominator — the
(1 + tanh^2 r)^{3/2} form is the one the oracle confirms; the (1 + tanh r)^{3/2}
variant is reported for the record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock_oracle as oracle
from .state_families import REGISTRY, Family, TwoModeMoments

__all__ = [
    "VerifyReport",
    "IdentityRow",
    "FAMILIES",
    "CUTOFF_CAP",
    "verify_family",
    "appendix_identity_report",
]

#: Draw guard: draws whose normalization denominator is below this are
#: redrawn.  The closed forms keep their digits there (all but the coherent
#: pair's), but the oracle's ``superpose`` loses them as 1/denominator grows.
_DENOM_GUARD = 1e-6

#: Tail mass that each compared state must meet on its own (a two-mode tail
#: sums both modes').  Truncating at cutoff M with tail mass t perturbs
#: the moments by up to ~M*t (the lost terms carry ladder weights of order M),
#: so the target must sit well below 1e-8 / M for the max(1e-8, 10 x tail)
#: tolerance to hold at its floor.  1e-12 keeps the worst case near 4e-9 even
#: at the largest squeeze drawn, whose states need M = 4096.
_TAIL_TARGET = 1e-12

#: Default hard cap on the oracle truncation (``verify --cutoff``): the
#: largest squeeze drawn needs 4096 to meet ``_TAIL_TARGET``.
CUTOFF_CAP = 4096


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one family's randomized oracle comparison.

    ``worst_params`` is the draw with the largest deviation, by the family's
    parameter keys (its ``--set`` keys on the command line).  ``tolerance``
    is the comparison tolerance at the largest tail, max(1e-8, 10 x
    ``tail_bound``): the loosest any draw was held to.
    """

    family: str
    draws: int
    max_abs_deviation: float
    worst_params: dict[str, float]
    tail_bound: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class IdentityRow:
    """One matrix-element identity checked at one squeeze value.

    ``required=False`` marks informational rows (the rejected published
    variant) that do not gate the verification exit status.
    """

    name: str
    r: float
    deviation: float
    tolerance: float
    passed: bool
    required: bool = True
    note: str = ""


def _channels(m: TwoModeMoments) -> np.ndarray:
    """n1, n2 and the four complex channels of ``m`` as columns, one row per state."""
    return np.stack(np.broadcast_arrays(m.n1, m.n2, m.a2, m.b2, m.adag_b, m.ab), axis=-1)


def _deviations(closed: np.ndarray, brute: TwoModeMoments) -> np.ndarray:
    """Largest gap between the closed forms' :func:`_channels` rows ``closed`` and ``brute``'s, one per row."""
    return np.abs(closed - _channels(brute)).max(axis=-1)


#: The verified families, in registry order, which keys each family's RNG stream.
FAMILIES: tuple[str, ...] = tuple(name for name, family in REGISTRY.items() if family.oracle is not None)


def _record(family: Family, rows: np.ndarray):
    """The family's record (its closed form's keyword arguments) of draws in key space, a row per row of ``rows``."""
    return family.record(dict(zip(family.draws, rows.T)))


def _draw(family: Family, rng: np.random.Generator, draws: int) -> np.ndarray:
    """``draws`` parameter rows in key space, drawn uniformly in ``family.draws``.

    Each round draws, as one array, as many candidates as are still missing,
    row by row and key by key in ``defaults`` order; candidates whose
    moments' normalization ``denominator`` is below ``_DENOM_GUARD`` are
    dropped, so the accepted draws are the ones a draw-by-draw redraw would
    accept.  A NaN denominator is kept, for its NaN moments to fail the
    comparison.
    """
    uppers = np.array(list(family.draws.values()))
    accepted = np.empty((0, uppers.size))
    while len(accepted) < draws:
        candidates = rng.uniform(0.0, uppers, size=(draws - len(accepted), uppers.size))
        # A state that is no superposition has one plain denominator of 1 for every row.
        small = np.less(family.moments(_record(family, candidates)).denominator, _DENOM_GUARD)
        candidates = candidates[~np.broadcast_to(small, len(candidates))]
        accepted = np.concatenate((accepted, candidates))
    return accepted


def verify_family(family: str, draws: int, seed: int, cutoff_cap: int = CUTOFF_CAP) -> VerifyReport:
    """Randomized oracle comparison for one family.

    The closed form is evaluated once over all draws, and the oracle states
    are built by one :func:`fock_oracle.fits` over the batch: each draw is
    compared at the first cutoff where its own tail mass meets
    ``_TAIL_TARGET``, and that measured tail is kept.  Single-mode states
    compare as mode 1 of a pair.  Per-draw tolerance is max(1e-8, 10 x tail
    mass), and a NaN deviation or tail fails it; the report carries the
    largest deviation, the drawn parameters that produced it (by key), the
    largest tail mass encountered and the tolerance at that tail.
    """
    if family not in FAMILIES:
        raise KeyError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if draws < 0:
        raise ValueError("draws must be non-negative")
    spec = REGISTRY[family]
    drawn = _draw(spec, np.random.default_rng([seed, FAMILIES.index(family)]), draws)
    closed = _channels(spec.moments(_record(spec, drawn)))
    deviation, tail = np.zeros(draws), np.zeros(draws)
    fits = oracle.fits(lambda cutoff, rows: spec.oracle(_record(spec, drawn[rows]), cutoff), draws, _TAIL_TARGET,
                       cutoff_cap)
    for fit in fits:
        deviation[fit.rows] = _deviations(closed[fit.rows], oracle.two_mode_moments(fit.state))
        tail[fit.rows] = fit.tail
    worst = int(np.argmax(deviation)) if draws else None
    limit = np.maximum(1e-8, 10.0 * tail)
    return VerifyReport(
        family=family,
        draws=draws,
        max_abs_deviation=float(deviation.max(initial=0.0)),
        worst_params={} if worst is None else dict(zip(spec.draws, drawn[worst].tolist())),
        tail_bound=float(tail.max(initial=0.0)),
        tolerance=float(limit.max(initial=1e-8)),
        passed=bool(np.all(deviation <= limit)),
    )


# --------------------------------------------------------------------------
# Matrix-element identities behind the closed forms
# --------------------------------------------------------------------------


def appendix_identity_report(cutoff_cap: int = CUTOFF_CAP) -> list[IdentityRow]:
    """Check the hyperbolic matrix-element identities at squeeze r = 0.5, 1 and 2.

    Covers overlaps and ladder moments between opposite squeezed vacua and
    between a squeezed vacuum and the coherent state of alpha = 0.6.  The
    cross pair moment is evaluated in both published denominator variants;
    only the tanh-squared form is required to pass, the other row records the
    measured discrepancy.
    """
    rows: list[IdentityRow] = []
    tol, alpha = 1e-10, 0.6

    def check(name: str, value: complex, closed: float, required: bool = True, note: str = "") -> None:
        dev = float(abs(value - closed))
        rows.append(IdentityRow(name, r, dev, tol, dev <= tol, required, note))

    for r in (0.5, 1.0, 2.0):
        # One cutoff for all three vectors, the squeezed vacuum's own: the
        # alpha = 0.6 coherent state's top-decile mass is 1.3e-46 already at
        # cutoff 32, so the product |r> (x) |alpha> would meet 1e-12 there too.
        ket = oracle.fitted(lambda c: oracle.squeezed_vacuum_vector(r, 0.0, c), _TAIL_TARGET, cutoff_cap)
        coh = oracle.coherent_vector(alpha, ket.cutoff)
        bra_minus = oracle.squeezed_vacuum_vector(r, math.pi, ket.cutoff)
        t, sech = math.tanh(r), 1.0 / math.cosh(r)

        check("overlap-opposite-squeezed", oracle.inner(bra_minus, ket), math.sqrt(1.0 / math.cosh(2 * r)))
        check("occupation-opposite-squeezed", oracle.inner(bra_minus, ket, "n"), -sech * t * t / (1.0 + t * t) ** 1.5)
        pair = oracle.inner(bra_minus, ket, "a2")
        check("pair-opposite-squeezed[tanh^2 denominator]", pair, -sech * t / (1.0 + t * t) ** 1.5)
        check("pair-opposite-squeezed[tanh denominator]", pair, -sech * t / (1.0 + t) ** 1.5,
              required=False, note="rejected variant, reported for adjudication")

        # squeezed-coherent elements at delta = 0
        g = math.exp(-(alpha**2) / 2.0) * math.sqrt(sech)
        twist = math.exp(-0.5 * alpha**2 * t)
        check("overlap-squeezed-coherent", oracle.inner(ket, coh), g * twist)
        check("occupation-squeezed-coherent", oracle.inner(ket, coh, "n"), -g * alpha**2 * t * twist)
        # <ket|a^dag^2|coh> = conj <coh|a^2|ket>
        check("create-pair-squeezed-coherent", oracle.inner(coh, ket, "a2").conjugate(),
              g * (alpha**2 * t - 1.0) * t * twist)
    return rows
