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

Amplitudes are running products (``np.cumprod``) of their successive ratios
rather than factorial ratios or powers, which keeps the constructors accurate
well past the point where ``math.factorial`` based formulas overflow.  How far
to truncate is decided once per state, by :func:`fitted`, on the tail of the
very state that is measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

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
    "fitted",
]

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

    Truncation is measured through :func:`tail_mass` and bounded by
    :func:`fitted`.
    """

    amps: np.ndarray

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

    Amplitudes are the running product c_l = c_0 prod_{k<=l} alpha / sqrt(k),
    seeded with the exact vacuum weight c_0 = exp(-|alpha|^2 / 2); the vector
    is renormalized afterwards so the retained piece is a unit vector.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    steps = alpha / np.sqrt(np.arange(1.0, cutoff + 1))
    amps = np.cumprod(np.concatenate(([np.exp(-0.5 * abs(alpha) ** 2)], steps)))
    return FockVector(amps / np.linalg.norm(amps))


def squeezed_vacuum_vector(r: float, delta: float, cutoff: int) -> FockVector:
    """Squeezed vacuum with squeeze magnitude ``r`` and phase ``delta``.

    Only even photon numbers are populated, as the running product of

        c_{m+2} / c_m = -e^{i delta} tanh r * sqrt((m+1)/(m+2))

    seeded with c_0 = sqrt(sech r).
    """
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2 to hold a photon pair")
    if r < 0:
        raise ValueError("squeeze magnitude must be non-negative")
    m = np.arange(0.0, cutoff - 1, 2)
    steps = -np.exp(1j * delta) * np.tanh(r) * np.sqrt((m + 1.0) / (m + 2.0))
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[::2] = np.cumprod(np.concatenate(([np.sqrt(1.0 / np.cosh(r))], steps)))
    return FockVector(amps / np.linalg.norm(amps))


def two_mode_squeezed_vector(r: float, delta: float, cutoff: int) -> TwoModeFockVector:
    """Two-mode squeezed vacuum as its Schmidt coefficients on ``|n, n>``.

    The coefficients c_n = (-e^{i delta} tanh r)^n / cosh r are the running
    product of the ratio, which keeps the rounding of a sequential recurrence.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    if r < 0:
        raise ValueError("squeeze magnitude must be non-negative")
    steps = np.full(cutoff, -np.exp(1j * delta) * np.tanh(r))
    amps = np.cumprod(np.concatenate(([1.0 / np.cosh(r)], steps)))
    return TwoModeFockVector(amps / np.linalg.norm(amps))


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
    return FockVector(total / nrm)


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


_State = TypeVar("_State", FockVector, TwoModeFockVector)


def fitted(build: Callable[[int], _State], target: float, cap: int) -> _State:
    """The first state ``build(cutoff)`` whose own :func:`tail_mass` is at most ``target``.

    Cutoffs 32, 64, 128, ... are tried up to ``cap``; past it the state is
    refused with :class:`TruncationError`.  The state returned is the one
    measured, so truncation is judged on exactly the vector that gets
    compared, and the trials cost at most twice the final build.
    """
    cutoff = 32
    while cutoff <= cap:
        state = build(cutoff)
        if tail_mass(state) <= target:
            return state
        cutoff *= 2
    raise TruncationError(f"no cutoff <= {cap} reaches tail mass {target:.1e}; state spreads too far")
