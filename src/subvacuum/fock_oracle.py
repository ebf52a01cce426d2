"""Truncated number-basis states and brute-force moment evaluation.

This module is the independent cross-check for every closed-form moment in
:mod:`subvacuum.state_families`.  States are stored as amplitude arrays in
the harmonic-oscillator number basis, truncated at a finite photon number: a
two-mode state as a product sum sum_i w_i |u_i> (x) |v_i> of single-mode
factors, or as its Schmidt coefficients c_n on |n, n>.  Every expectation
value comes from one primitive, the matrix elements <u_i|X|v_j> of a ladder
operator between single-mode vectors by direct index summation -- no
operator matrices, no matrix exponentials -- so the only approximation
anywhere is the truncation itself, measurable through :func:`tail_mass`.

Amplitudes are built by stable two-term recurrences rather than factorial
ratios, which keeps the constructors exact well past the point where
``math.factorial`` based formulas overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    "superpose",
    "superpose_two_mode",
    "inner",
    "mean_amplitude",
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
#: Bound on a two-mode product sum's norm^2, relative to (sum_i |w_i|)^2.
DEGENERATE_NORM2 = 1e-12


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
    """Normalized two-mode state, stored in the form its structure allows.

    A product sum sum_i weights[i] |u_i> (x) |v_i> stacks its factors in
    ``amps`` of shape (2, k, M+1): ``amps[0, i]`` is u_i and ``amps[1, i]``
    is v_i.  A Schmidt-diagonal state sum_n amps[n] |n, n> keeps its
    coefficients as a 1-d ``amps`` and has ``weights`` None.
    """

    amps: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "amps", _readonly(self.amps))
        if self.weights is not None:
            object.__setattr__(self, "weights", _readonly(self.weights))
        size = self.amps.shape[-1]
        shape = (size,) if self.weights is None else (2, len(self.weights), size)
        if self.amps.shape != shape or size < 2:
            raise ValueError("two-mode amplitudes must have shape (M+1,) or (2, k, M+1), M >= 1")


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
    """Two-mode squeezed vacuum as its Schmidt coefficients on ``|n, n>``.

    The coefficients are c_n = (-e^{i delta} tanh r)^n / cosh r, built by
    multiplying the ratio once per step.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    if r < 0:
        raise ValueError("squeeze magnitude must be non-negative")
    amps = np.zeros(cutoff + 1, dtype=complex)
    c = 1.0 / np.cosh(r)
    ratio = -np.exp(1j * delta) * np.tanh(r)
    for n in range(cutoff + 1):
        amps[n] = c
        c = c * ratio
    amps /= np.linalg.norm(amps)
    vec = TwoModeFockVector(amps)
    heavy = tail_mass(vec) > SQUEEZED_TAIL_LIMIT
    if heavy and strict:
        raise TruncationError(
            f"two-mode squeezed vacuum r={r}: tail mass {tail_mass(vec):.3e} "
            f"exceeds {SQUEEZED_TAIL_LIMIT:.0e} at cutoff {cutoff}"
        )
    return vec


def superpose(terms: Sequence[tuple[complex, FockVector]]) -> FockVector:
    """Normalized linear combination of single-mode vectors.

    All terms must share a cutoff.  Cancellation below ``DEGENERATE_NORM``
    raises :class:`DegenerateSuperpositionError`.
    """
    sizes = {v.amps.size for _, v in terms}
    if len(sizes) > 1:
        raise ValueError("superposition terms must share a cutoff")
    if not terms:
        raise ValueError("superposition needs at least one term")
    total = sum(w * v.amps for w, v in terms)
    nrm = np.linalg.norm(total)
    if nrm < DEGENERATE_NORM:
        raise DegenerateSuperpositionError(f"superposed amplitudes cancel: residual norm {nrm:.3e}")
    return FockVector(total / nrm, truncation_flagged=any(v.truncation_flagged for _, v in terms))


def superpose_two_mode(terms: Sequence[tuple[complex, FockVector, FockVector]]) -> TwoModeFockVector:
    """Normalized product sum sum_i w_i |u_i> (x) |v_i> from (w_i, u_i, v_i) triples.

    A single triple (1, u, v) is the product state.  All factors share a
    cutoff.  The norm^2 is a Gram sum with rounding error ~1e-16 (sum_i |w_i|)^2,
    so cancellation is judged on it against ``DEGENERATE_NORM2`` at that scale.
    """
    if not terms:
        raise ValueError("superposition needs at least one term")
    if len({f.amps.size for _, u, v in terms for f in (u, v)}) > 1:
        raise ValueError("superposition factors must share a cutoff")
    w = np.array([t[0] for t in terms], dtype=complex)
    raw = TwoModeFockVector(np.array([[t[1].amps for t in terms], [t[2].amps for t in terms]]), w)
    norm2 = _product_sum(raw, "1", "1").real
    if norm2 < DEGENERATE_NORM2 * np.sum(np.abs(w)) ** 2:
        raise DegenerateSuperpositionError(f"superposed products cancel: residual norm^2 {norm2:.3e}")
    return TwoModeFockVector(raw.amps, w / np.sqrt(norm2))


#: Operators X by name as (shift s, weight w): <m|X|m + s> = w(m) is the only
#: nonzero element of row m.  "tail" projects on the top decile of photon numbers.
_LADDER = {
    "1": (0, lambda m: np.ones_like(m)),
    "n": (0, lambda m: m),
    "a": (1, lambda m: np.sqrt(m + 1.0)),
    "a2": (2, lambda m: np.sqrt((m + 1.0) * (m + 2.0))),
    "tail": (0, lambda m: (m >= m.size - max(1, m.size // 10)).astype(float)),
}


def _ladder(bra: np.ndarray, ket: np.ndarray, op: str) -> np.ndarray:
    """Matrix elements <bra_i|X|ket_j> by index summation over photon numbers.

    ``bra`` and ``ket`` hold amplitudes along their last axis; stacked rows
    give the matrix over (i, j), single vectors one element.  ``op`` is a key
    of ``_LADDER`` or "adag", through <u|a^dag|v> = conj <v|a|u>.
    """
    if op == "adag":
        return _ladder(ket, bra, "a").conj().T
    shift, weight = _LADDER[op]
    size = bra.shape[-1] - shift
    return (np.conj(bra[..., :size]) * weight(np.arange(size, dtype=float))) @ ket[..., shift:].T


def _product_sum(v: TwoModeFockVector, x: str, y: str) -> complex:
    """<X (x) Y> of a product sum: sum_ij conj(w_i) w_j <u_i|X|u_j> <v_i|Y|v_j>."""
    ua, ub = v.amps
    return complex(np.conj(v.weights) @ (_ladder(ua, ua, x) * _ladder(ub, ub, y)) @ v.weights)


def inner(u: FockVector, v: FockVector, op: str = "1") -> complex:
    """Matrix element ``<u|X|v>`` (X named as in :func:`_ladder`, default the identity)."""
    if u.amps.size != v.amps.size:
        raise ValueError("inner product requires matching cutoffs")
    return complex(_ladder(u.amps, v.amps, op))


def mean_amplitude(v: FockVector) -> complex:
    """First moment <a> of a single-mode vector, by index summation.

    Together with :func:`one_mode_moments` it gives the centred moments
    n - |<a>|^2 and <a^2> - <a>^2, which a displacement leaves unchanged.
    """
    return complex(_ladder(v.amps, v.amps, "a"))


def one_mode_moments(v: FockVector) -> OracleMoments:
    """Occupation and pair moments of a single-mode vector.

    The occupation is accumulated as a complex expectation value and checked
    to be real to machine precision before the real part is kept.
    """
    n_c = complex(_ladder(v.amps, v.amps, "n"))
    if abs(n_c.imag) > 1e-12:
        raise ValueError(f"occupation has imaginary residue {n_c.imag:.3e}")
    a2 = complex(_ladder(v.amps, v.amps, "a2"))
    return OracleMoments(n_a=n_c.real, n_b=0.0, a2=a2, b2=0.0, adag_b=0.0, ab=0.0)


def two_mode_moments(v: TwoModeFockVector) -> OracleMoments:
    """All quadratic ladder moments of a two-mode vector by index summation.

    A Schmidt-diagonal state has n_a = n_b = sum_n |c_n|^2 n, <ab> =
    sum_n conj(c_n) (n + 1) c_{n+1}, and no channel that changes n_a - n_b.
    """
    if v.weights is None:
        c = v.amps
        n = float(_ladder(c, c, "n").real)
        ab = complex(np.vdot(c[:-1], np.arange(1.0, c.size) * c[1:]))
        return OracleMoments(n_a=n, n_b=n, a2=0j, b2=0j, adag_b=0j, ab=ab)
    return OracleMoments(
        n_a=_product_sum(v, "n", "1").real,
        n_b=_product_sum(v, "1", "n").real,
        a2=_product_sum(v, "a2", "1"),
        b2=_product_sum(v, "1", "a2"),
        adag_b=_product_sum(v, "adag", "a"),
        ab=_product_sum(v, "a", "a"),
    )


def tail_mass(v: FockVector | TwoModeFockVector) -> float:
    """Probability carried by the top decile of retained indices.

    For two-mode vectors the per-mode decile masses are summed, which upper
    bounds the weight living near either truncation edge.
    """
    if isinstance(v, FockVector):
        return float(_ladder(v.amps, v.amps, "tail").real)
    if v.weights is None:
        return 2.0 * float(_ladder(v.amps, v.amps, "tail").real)
    return (_product_sum(v, "tail", "1") + _product_sum(v, "1", "tail")).real


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
