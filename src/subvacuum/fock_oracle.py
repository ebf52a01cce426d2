"""Truncated number-basis states and brute-force moment evaluation.

This module is the independent cross-check for every closed-form moment in
:mod:`subvacuum.state_families`.  States are stored as plain amplitude arrays
in the harmonic-oscillator number basis, truncated at a finite photon number.
Ladder-operator expectation values are evaluated by direct index summation
over the retained amplitudes -- no operator matrices, no matrix exponentials
-- so the only approximation anywhere is the truncation itself, and that is
measurable through :func:`tail_mass`.

Amplitudes are built by stable two-term recurrences rather than factorial
ratios, which keeps the constructors exact well past the point where
``math.factorial`` based formulas overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "TruncationError",
    "DegenerateSuperpositionError",
    "FockVector",
    "TwoModeFockVector",
    "OracleMoments",
    "coherent_vector",
    "squeezed_vacuum_vector",
    "two_mode_squeezed_vector",
    "product_state",
    "superpose",
    "superpose_two_mode",
    "inner",
    "one_mode_moments",
    "two_mode_moments",
    "tail_mass",
    "coherent_cutoff_for",
    "squeezed_cutoff_for",
]

#: Tail mass above which a coherent-state constructor flags its result.
COHERENT_TAIL_WARN = 1e-10
#: Tail mass above which a squeezed-state constructor flags (or, in strict
#: mode, rejects) its result.
SQUEEZED_TAIL_LIMIT = 1e-8
#: Norm below which a superposition is considered destructively degenerate.
DEGENERATE_NORM = 1e-14


class TruncationError(ValueError):
    """Raised when a requested cutoff retains too little of the state."""


class DegenerateSuperpositionError(ValueError):
    """Raised when superposed amplitudes cancel to (numerically) zero."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FockVector:
    """Normalized single-mode state: ``amps[m]`` multiplies the m-photon ket.

    ``truncation_flagged`` records that the constructor saw more weight in
    the top decile of retained indices than its tolerance allows.  It is
    informational only: verification bounds truncation through
    :func:`tail_mass` and strict constructors, not through this flag.
    """

    amps: np.ndarray
    truncation_flagged: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "amps", _readonly(self.amps))
        if self.amps.ndim != 1 or self.amps.size < 2:
            raise ValueError("single-mode amplitudes must be a 1-d array of length >= 2")

    @property
    def cutoff(self) -> int:
        """Largest retained photon number."""
        return self.amps.size - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True)
class TwoModeFockVector:
    """Normalized two-mode state: ``amps[m, n]`` multiplies ``|m, n>``."""

    amps: np.ndarray
    truncation_flagged: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "amps", _readonly(self.amps))
        if self.amps.ndim != 2 or min(self.amps.shape) < 2:
            raise ValueError("two-mode amplitudes must be a 2-d array, >= 2 per axis")

    @property
    def cutoffs(self) -> tuple[int, int]:
        return (self.amps.shape[0] - 1, self.amps.shape[1] - 1)

    def tail_mass_per_mode(self) -> tuple[float, float]:
        """Probability in the top decile of retained indices, per mode."""
        p = np.abs(self.amps) ** 2
        ka = max(1, p.shape[0] // 10)
        kb = max(1, p.shape[1] // 10)
        return (float(p[-ka:, :].sum()), float(p[:, -kb:].sum()))


@dataclass(frozen=True)
class OracleMoments:
    """Ladder-operator moments measured on a truncated state.

    For single-mode states the b-mode entries are identically zero.
    """

    n_a: float
    n_b: float
    a2: complex
    b2: complex
    adag_b: complex
    ab: complex


def coherent_vector(alpha: complex, cutoff: int) -> FockVector:
    """Coherent state of amplitude ``alpha`` truncated at ``cutoff`` photons.

    Amplitudes follow the ratio recurrence c_{l+1} = c_l * alpha / sqrt(l+1)
    seeded with the exact vacuum weight exp(-|alpha|^2 / 2); the vector is
    renormalized afterwards so the retained piece is a unit vector.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[0] = np.exp(-0.5 * abs(alpha) ** 2)
    for l in range(cutoff):
        amps[l + 1] = amps[l] * alpha / np.sqrt(l + 1.0)
    lost = 1.0 - float(np.vdot(amps, amps).real)
    amps /= np.linalg.norm(amps)
    vec = FockVector(amps)
    flagged = tail_mass(vec) > COHERENT_TAIL_WARN or lost > COHERENT_TAIL_WARN
    return FockVector(amps, truncation_flagged=flagged)


def squeezed_vacuum_vector(
    r: float, delta: float, cutoff: int, strict: bool = False
) -> FockVector:
    """Squeezed vacuum with squeeze magnitude ``r`` and phase ``delta``.

    Only even photon numbers are populated:

        c_{m+2} = c_m * (-e^{i delta} tanh r) * sqrt((m+1)/(m+2)),

    seeded with c_0 = sqrt(sech r).  With ``strict=True`` a tail mass above
    ``SQUEEZED_TAIL_LIMIT`` raises :class:`TruncationError`; otherwise the
    vector is returned with ``truncation_flagged`` set.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2 to hold a photon pair")
    if r < 0:
        raise ValueError("squeeze magnitude must be non-negative")
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[0] = 1.0
    ratio = -np.exp(1j * delta) * np.tanh(r)
    for m in range(0, cutoff - 1, 2):
        amps[m + 2] = amps[m] * ratio * np.sqrt((m + 1.0) / (m + 2.0))
    amps *= np.sqrt(1.0 / np.cosh(r))
    amps /= np.linalg.norm(amps)
    vec = FockVector(amps)
    heavy = tail_mass(vec) > SQUEEZED_TAIL_LIMIT
    if heavy and strict:
        raise TruncationError(
            f"squeezed vacuum r={r}: tail mass {tail_mass(vec):.3e} exceeds "
            f"{SQUEEZED_TAIL_LIMIT:.0e} at cutoff {cutoff}"
        )
    return FockVector(amps, truncation_flagged=heavy)


def two_mode_squeezed_vector(
    r: float, delta: float, cutoff: int, strict: bool = False
) -> TwoModeFockVector:
    """Two-mode squeezed vacuum; population sits on the diagonal ``|n, n>``.

    Diagonal weights are c_{n,n} = (-e^{i delta} tanh r)^n / cosh r, built by
    multiplying the ratio once per step.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    if r < 0:
        raise ValueError("squeeze magnitude must be non-negative")
    amps = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    c = 1.0 / np.cosh(r)
    ratio = -np.exp(1j * delta) * np.tanh(r)
    for n in range(cutoff + 1):
        amps[n, n] = c
        c = c * ratio
    amps /= np.linalg.norm(amps)
    vec = TwoModeFockVector(amps)
    heavy = tail_mass(vec) > SQUEEZED_TAIL_LIMIT
    if heavy and strict:
        raise TruncationError(
            f"two-mode squeezed vacuum r={r}: tail mass {tail_mass(vec):.3e} "
            f"exceeds {SQUEEZED_TAIL_LIMIT:.0e} at cutoff {cutoff}"
        )
    return TwoModeFockVector(amps, truncation_flagged=heavy)


def product_state(u: FockVector, v: FockVector) -> TwoModeFockVector:
    """Tensor product ``|u> (x) |v>`` as a two-mode amplitude grid."""
    return TwoModeFockVector(
        np.outer(u.amps, v.amps),
        truncation_flagged=u.truncation_flagged or v.truncation_flagged,
    )


def _combine(weighted: Iterable[tuple[complex, np.ndarray]]) -> np.ndarray:
    total = None
    for w, a in weighted:
        total = w * a if total is None else total + w * a
    if total is None:
        raise ValueError("superposition needs at least one term")
    nrm = np.linalg.norm(total)
    if nrm < DEGENERATE_NORM:
        raise DegenerateSuperpositionError(
            f"superposed amplitudes cancel: residual norm {nrm:.3e}"
        )
    return total / nrm


def superpose(terms: Sequence[tuple[complex, FockVector]]) -> FockVector:
    """Normalized linear combination of single-mode vectors.

    All terms must share a cutoff.  Cancellation below ``DEGENERATE_NORM``
    raises :class:`DegenerateSuperpositionError`.
    """
    sizes = {v.amps.size for _, v in terms}
    if len(sizes) > 1:
        raise ValueError("superposition terms must share a cutoff")
    flagged = any(v.truncation_flagged for _, v in terms)
    amps = _combine((w, v.amps) for w, v in terms)
    return FockVector(amps, truncation_flagged=flagged)


def superpose_two_mode(
    terms: Sequence[tuple[complex, TwoModeFockVector]]
) -> TwoModeFockVector:
    """Normalized linear combination of two-mode vectors (shared cutoffs)."""
    shapes = {v.amps.shape for _, v in terms}
    if len(shapes) > 1:
        raise ValueError("superposition terms must share cutoffs")
    flagged = any(v.truncation_flagged for _, v in terms)
    amps = _combine((w, v.amps) for w, v in terms)
    return TwoModeFockVector(amps, truncation_flagged=flagged)


def inner(u: FockVector, v: FockVector) -> complex:
    """Inner product ``<u|v>``; conjugation on the first argument."""
    if u.amps.size != v.amps.size:
        raise ValueError("inner product requires matching cutoffs")
    return complex(np.vdot(u.amps, v.amps))


def one_mode_moments(v: FockVector) -> OracleMoments:
    """Occupation and pair moments of a single-mode vector.

    The occupation is accumulated as a complex expectation value and checked
    to be real to machine precision before the real part is kept.
    """
    a = v.amps
    m = np.arange(a.size, dtype=float)
    n_c = complex(np.vdot(a, m * a))
    if abs(n_c.imag) > 1e-12:
        raise ValueError(f"occupation has imaginary residue {n_c.imag:.3e}")
    a2 = complex(np.sum(np.conj(a[:-2]) * np.sqrt((m[:-2] + 1.0) * (m[:-2] + 2.0)) * a[2:]))
    return OracleMoments(n_a=n_c.real, n_b=0.0, a2=a2, b2=0.0, adag_b=0.0, ab=0.0)


def two_mode_moments(v: TwoModeFockVector) -> OracleMoments:
    """All quadratic ladder moments of a two-mode vector by index summation."""
    A = v.amps
    m = np.arange(A.shape[0], dtype=float)
    n = np.arange(A.shape[1], dtype=float)
    p = np.abs(A) ** 2
    n_a = float(np.sum(p * m[:, None]))
    n_b = float(np.sum(p * n[None, :]))
    a2 = complex(
        np.sum(np.conj(A[:-2, :]) * np.sqrt((m[:-2] + 1.0) * (m[:-2] + 2.0))[:, None] * A[2:, :])
    )
    b2 = complex(
        np.sum(np.conj(A[:, :-2]) * np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))[None, :] * A[:, 2:])
    )
    adag_b = complex(
        np.sum(
            np.conj(A[1:, :-1])
            * np.sqrt(m[1:])[:, None]
            * np.sqrt(n[:-1] + 1.0)[None, :]
            * A[:-1, 1:]
        )
    )
    ab = complex(
        np.sum(
            np.conj(A[:-1, :-1])
            * np.sqrt(m[:-1] + 1.0)[:, None]
            * np.sqrt(n[:-1] + 1.0)[None, :]
            * A[1:, 1:]
        )
    )
    return OracleMoments(n_a=n_a, n_b=n_b, a2=a2, b2=b2, adag_b=adag_b, ab=ab)


def tail_mass(v: FockVector | TwoModeFockVector) -> float:
    """Probability carried by the top decile of retained indices.

    For two-mode vectors the per-mode decile masses are summed, which upper
    bounds the weight living near either truncation edge.
    """
    if isinstance(v, TwoModeFockVector):
        ta, tb = v.tail_mass_per_mode()
        return ta + tb
    p = np.abs(v.amps) ** 2
    k = max(1, p.size // 10)
    return float(p[-k:].sum())


def _grown_cutoff(build, start: int, target: float, cap: int) -> int:
    cutoff = start
    while cutoff <= cap:
        if tail_mass(build(cutoff)) <= target:
            return cutoff
        cutoff *= 2
    raise TruncationError(
        f"no cutoff <= {cap} reaches tail mass {target:.1e}; state spreads too far"
    )


def coherent_cutoff_for(alpha: complex, target: float = 1e-9, cap: int = 4096) -> int:
    """Smallest power-of-two-style cutoff keeping a coherent tail below ``target``."""
    return _grown_cutoff(lambda c: coherent_vector(alpha, c), 32, target, cap)


def squeezed_cutoff_for(r: float, target: float = 1e-9, cap: int = 4096) -> int:
    """Smallest doubling cutoff keeping a squeezed-vacuum tail below ``target``.

    Constructing a candidate vector is O(cutoff), so measuring the actual
    tail is cheaper and more honest than an analytic estimate.
    """
    return _grown_cutoff(lambda c: squeezed_vacuum_vector(r, 0.0, c), 64, target, cap)
