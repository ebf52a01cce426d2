"""Randomized cross-validation of every closed-form moment against the oracle.

For each state family we draw parameters from a seeded stream inside
oracle-safe bounds (squeeze magnitudes <= 2.5, coherent amplitudes <= 3,
superposition weights <= 4 in magnitude), build the state in the truncated
number basis at the first doubling cutoff where that state's own tail mass
is at most 1e-12, and demand that every closed-form moment agree with the
brute-force value to max(1e-8, 10 x tail mass).

A second report checks the hyperbolic matrix-element identities used inside
the closed forms (squeezed-squeezed and squeezed-coherent overlaps and ladder
moments) at fixed squeeze values, including a side-by-side comparison of the
two published variants of the cross pair moment's denominator — the
(1 + tanh^2 r)^{3/2} form is the one the oracle confirms; the (1 + tanh r)^{3/2}
variant is reported for the record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from . import fock_oracle as oracle
from .state_families import (
    REGISTRY,
    BarnettRadmore,
    CoherentPair,
    CoherentSqueezed,
    EntangledCoherent,
    SqueezedPair,
    TwoModeMoments,
    VacuumSqueezed,
    ZhangReal,
    regular,
)

__all__ = [
    "VerifyReport",
    "IdentityRow",
    "FAMILIES",
    "verify_family",
    "verify_all",
    "appendix_identity_report",
]

#: Draw guard: parameter draws keeping the normalization denominator above
#: this are accepted; closer-to-degenerate draws are redrawn (the closed
#: forms and the oracle both lose precision as 1/denominator blows up).
_DENOM_GUARD = 1e-6

#: Tail mass that each compared state must meet on its own (a two-mode tail
#: sums both modes').  Truncating at cutoff M with tail mass t perturbs
#: the moments by up to ~M*t (the lost terms carry ladder weights of order M),
#: so the target must sit well below 1e-8 / M for the max(1e-8, 10 x tail)
#: tolerance to hold at its floor.  1e-12 keeps the worst case near 4e-9 even
#: at the largest draw (r = 2.5, M = 4096).
_TAIL_TARGET = 1e-12


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one family's randomized oracle comparison."""

    family: str
    draws: int
    max_abs_deviation: float
    worst_params: dict[str, float]
    tail_bound: float
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


def _deviations(cm: TwoModeMoments, oms: list[oracle.OracleMoments]) -> np.ndarray:
    """Largest closed-form-vs-oracle gap over the occupations and the four
    channels, one per row of the batch ``cm`` and entry of ``oms``."""
    channels = [(cm.R1, cm.gamma1), (cm.R2, cm.gamma2), (cm.R3, cm.gamma3), (cm.R4, cm.gamma4)]
    closed = np.broadcast_arrays(cm.n1, cm.n2, *(mag * np.exp(1j * ph) for mag, ph in channels))
    brute = [[om.n_a, om.n_b, om.a2, om.b2, om.adag_b, om.ab] for om in oms]
    return np.abs(np.stack(closed, axis=-1) - np.array(brute)).max(axis=1)


def _unit_phase(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.0, 2.0 * math.pi))


def _amplitude(rng: np.random.Generator, mag_max: float) -> complex:
    return rng.uniform(0.0, mag_max) * np.exp(1j * _unit_phase(rng))


def _squeeze(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.0, 2.5))


def _report(params) -> dict[str, float]:
    """Drawn parameters for the report; complex ones as magnitude and argument."""
    out: dict[str, float] = {}
    for f in fields(params):
        v = getattr(params, f.name)
        if isinstance(v, complex):
            out[f"{f.name}_abs"], out[f"{f.name}_arg"] = float(abs(v)), float(np.angle(v))
        else:
            out[f.name] = v
    return out


def _stacked(records: list):
    """One parameter record whose fields are arrays over ``records``."""
    return type(records[0])(*(np.array(column) for column in zip(*(vars(p).values() for p in records))))


#: Family name -> drawer(rng, draws, cap) returning one (params for the
#: report, deviation, tail mass) per draw, filled by :func:`_drawer_for`.
#: Definition order below is the FAMILIES order, which keys each family's
#: RNG stream.
_DRAWERS = {}


def _drawer_for(family: str, draw):
    """Register the decorated oracle-state builder ``build(params, cutoff)`` for ``family``.

    ``draw(rng)`` returns the family's parameter record inside the oracle-safe
    bounds; it is redrawn while the registry's normalization denominator is
    below ``_DENOM_GUARD``.  All records are drawn first, and the closed form
    is evaluated once over all of them.  The state compared is the first one
    whose own tail mass meets ``_TAIL_TARGET`` (:func:`fock_oracle.fitted`).
    Single-mode states compare as mode 1 of a pair.
    """
    closed = REGISTRY[family]

    def register(build):
        def drawer(rng, draws, cap):
            records = []
            for _ in range(draws):
                params = draw(rng)
                while closed.norm is not None and closed.denominator(params) < _DENOM_GUARD:
                    params = draw(rng)
                records.append(params)
            if not records:
                return []
            cm = closed.layout.lift(regular(closed.moments(_stacked(records))))
            oms, tails = [], []
            for params in records:
                state = oracle.fitted(lambda cutoff: build(params, cutoff), _TAIL_TARGET, cap)
                two_mode = isinstance(state, oracle.TwoModeFockVector)
                oms.append(oracle.two_mode_moments(state) if two_mode else oracle.one_mode_moments(state))
                tails.append(oracle.tail_mass(state))
            return list(zip(map(_report, records), _deviations(cm, oms), tails))

        _DRAWERS[family] = drawer
        return build

    return register


def _plus(first: oracle.FockVector, eta: complex, second: oracle.FockVector) -> oracle.FockVector:
    """N(first + eta second)."""
    return oracle.superpose([(1.0, first), (complex(eta), second)])


@_drawer_for(
    "coherent-pair", lambda rng: CoherentPair(_amplitude(rng, 3.0), _amplitude(rng, 3.0), _amplitude(rng, 4.0))
)
def _coherent_pair_state(p: CoherentPair, cut: int) -> oracle.FockVector:
    return _plus(oracle.coherent_vector(p.alpha, cut), p.eta, oracle.coherent_vector(p.beta, cut))


@_drawer_for("superposed-squeezed", lambda rng: SqueezedPair(_squeeze(rng), _amplitude(rng, 4.0)))
def _superposed_squeezed_state(p: SqueezedPair, cut: int) -> oracle.FockVector:
    return _plus(oracle.squeezed_vacuum_vector(p.r, 0.0, cut), p.eta, oracle.squeezed_vacuum_vector(p.r, math.pi, cut))


@_drawer_for(
    "coherent-squeezed",
    lambda rng: CoherentSqueezed(_squeeze(rng), _unit_phase(rng), _amplitude(rng, 3.0), _amplitude(rng, 4.0)),
)
def _coherent_squeezed_state(p: CoherentSqueezed, cut: int) -> oracle.FockVector:
    return _plus(oracle.squeezed_vacuum_vector(p.r, p.delta, cut), p.eta, oracle.coherent_vector(p.alpha, cut))


@_drawer_for("vacuum-squeezed", lambda rng: VacuumSqueezed(_squeeze(rng), _amplitude(rng, 4.0)))
def _vacuum_squeezed_state(p: VacuumSqueezed, cut: int) -> oracle.FockVector:
    return _plus(oracle.squeezed_vacuum_vector(p.r, 0.0, cut), p.eta, oracle.coherent_vector(0.0, cut))


@_drawer_for("barnett-radmore", lambda rng: BarnettRadmore(_squeeze(rng), _unit_phase(rng)))
def _barnett_radmore_state(p: BarnettRadmore, cut: int) -> oracle.TwoModeFockVector:
    return oracle.two_mode_squeezed_vector(p.r, p.delta, cut)


@_drawer_for("zhang", lambda rng: ZhangReal(_squeeze(rng), _unit_phase(rng)))
def _zhang_state(p: ZhangReal, cut: int) -> oracle.TwoModeFockVector:
    minus = oracle.squeezed_vacuum_vector(p.r, math.pi, cut)
    plus = oracle.squeezed_vacuum_vector(p.r, 0.0, cut)
    return oracle.superpose_two_mode([(1.0, minus, minus), (np.exp(1j * p.theta), plus, plus)])


@_drawer_for(
    "entangled-coherent",
    lambda rng: EntangledCoherent(
        float(rng.uniform(0.0, 3.0)), _unit_phase(rng), _unit_phase(rng), _unit_phase(rng)
    ),
)
def _entangled_coherent_state(p: EntangledCoherent, cut: int) -> oracle.TwoModeFockVector:
    a = p.sigma * np.exp(1j * p.delta1)
    b = p.sigma * np.exp(1j * p.delta2)
    return oracle.superpose_two_mode(
        [
            (1.0, oracle.coherent_vector(a, cut), oracle.coherent_vector(b, cut)),
            (np.exp(1j * p.theta), oracle.coherent_vector(-a, cut), oracle.coherent_vector(-b, cut)),
        ]
    )


FAMILIES: tuple[str, ...] = tuple(_DRAWERS)


def verify_family(family: str, draws: int, seed: int, cutoff_cap: int = 4096) -> VerifyReport:
    """Randomized oracle comparison for one family.

    Per-draw tolerance is max(1e-8, 10 x tail mass); the report carries the
    largest deviation, the parameters that produced it, and the largest tail
    mass encountered.
    """
    if family not in _DRAWERS:
        raise KeyError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if draws < 0:
        raise ValueError("draws must be non-negative")
    drawer = _DRAWERS[family]
    rng = np.random.default_rng([seed, FAMILIES.index(family)])
    max_dev = 0.0
    worst: dict[str, float] = {}
    tail_bound = 0.0
    passed = True
    for params, dev, tail in drawer(rng, draws, cutoff_cap):
        dev, tail = float(dev), float(tail)
        tail_bound = max(tail_bound, tail)
        if dev > max(1e-8, 10.0 * tail):
            passed = False
        if dev > max_dev:
            max_dev = dev
            worst = params
    return VerifyReport(
        family=family,
        draws=draws,
        max_abs_deviation=max_dev,
        worst_params=worst,
        tail_bound=tail_bound,
        passed=passed,
    )


def verify_all(
    families: Iterable[str] | None = None,
    draws: int = 100,
    seed: int = 7,
    cutoff_cap: int = 4096,
) -> list[VerifyReport]:
    """Run verify_family over the requested families (all by default)."""
    return [
        verify_family(f, draws, seed, cutoff_cap)
        for f in (FAMILIES if families is None else tuple(families))
    ]


# --------------------------------------------------------------------------
# Matrix-element identities behind the closed forms
# --------------------------------------------------------------------------


def appendix_identity_report(
    r_values: Iterable[float] = (0.5, 1.0, 2.0),
    alpha: float = 0.6,
    cutoff_cap: int = 8192,
) -> list[IdentityRow]:
    """Check the hyperbolic matrix-element identities at fixed squeeze values.

    Covers overlaps and ladder moments between opposite squeezed vacua and
    between a squeezed vacuum and a coherent state.  The cross pair moment is
    evaluated in both published denominator variants; only the tanh-squared
    form is required to pass, the other row records the measured discrepancy.
    """
    rows: list[IdentityRow] = []
    tol = 1e-10

    def check(name: str, value: complex, closed: float, required: bool = True, note: str = "") -> None:
        dev = float(abs(value - closed))
        rows.append(IdentityRow(name, r, dev, tol, dev <= tol, required, note))

    for r in r_values:
        # One cutoff for all three vectors: the first at which the product
        # |r> (x) |alpha>, whose tail sums both factors' tails, meets 1e-12.
        both = oracle.fitted(
            lambda c: oracle.superpose_two_mode(
                [(1.0, oracle.squeezed_vacuum_vector(r, 0.0, c), oracle.coherent_vector(alpha, c))]
            ),
            _TAIL_TARGET,
            cutoff_cap,
        )
        ket, coh = (oracle.FockVector(factor[0]) for factor in both.amps)
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
