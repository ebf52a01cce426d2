"""Truncated number-basis states and brute-force moment evaluation.

This module is the independent cross-check for every closed-form moment in
:mod:`subvacuum.state_families`.  States are stored as amplitude arrays in
the harmonic-oscillator number basis, truncated at a finite photon number: a
two-mode state as a product sum sum_i w_i |u_i> (x) |v_i> of single-mode
factors on a mode axis (of length 1 when every u_i is v_i), or as its
Schmidt coefficients c_n on |n, n>.  Every expectation value comes from one
primitive, the matrix elements <u_i|X|v_j> of a ladder operator between
single-mode vectors by direct index summation -- no operator matrices, no
matrix exponentials -- so the only approximation anywhere is the truncation
itself, measurable through :func:`tail_mass`.

Every state object holds a batch of states, one per row, all at one cutoff:
the constructors take parameter arrays, and the moments, overlaps and tail
masses come back with the batch shape.  A single state is a batch of one
(scalar parameters, numpy scalars out) and goes through the same loops, so a
row's amplitudes and moments do not depend on the batch it was built in.
There are three readings -- :func:`inner`, :func:`two_mode_moments` and
:func:`tail_mass` -- and the last two take a state in any of its storage
forms.  The moments come back in the closed forms' one moments record, a
single-mode state as its mode 1 with mode 2 empty, whose complex channels are
stored as measured and whose R and gamma are derived on first read, (0, 0)
below magnitude 1e-15.

Amplitudes are running products (``np.cumprod``) of their successive ratios
rather than factorial ratios or powers, which keeps the constructors accurate
well past the point where ``math.factorial`` based formulas overflow.  How far
to truncate is decided per state, by :func:`fits` (a batch, stepping all
unresolved rows through the cutoffs together, one build per cutoff level and
bounded block) or :func:`fitted` (one state), on the tail of the very state
that is measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generic, Iterator, Sequence, TypeVar

import numpy as np

if TYPE_CHECKING:
    from .state_families import TwoModeMoments

__all__ = [
    "TruncationError",
    "DegenerateStateError",
    "FockVector",
    "TwoModeFockVector",
    "Fit",
    "coherent_vector",
    "squeezed_vacuum_vector",
    "two_mode_squeezed_vector",
    "superpose",
    "superpose_two_mode",
    "inner",
    "two_mode_moments",
    "tail_mass",
    "fits",
    "fitted",
]

#: Norm below which a superposition is considered destructively degenerate.
DEGENERATE_NORM = 1e-14
#: Bound on a two-mode product sum's norm^2, relative to (sum_i |w_i|)^2.
DEGENERATE_NORM2 = 1e-12
#: Amplitudes per single-mode factor that one build of :func:`fits` may hold
#: (rows x (cutoff + 1)); a cutoff level with more is built in blocks of this
#: size, which bounds the working set at 128 KiB per factor array.
BLOCK_AMPS = 1 << 13


class TruncationError(ValueError):
    """Raised when a requested cutoff retains too little of the state."""


class DegenerateStateError(ValueError):
    """The requested superposition has (numerically) zero norm."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FockVector:
    """Normalized single-mode states: ``amps[..., m]`` multiplies the m-photon ket.

    The leading axes are the batch; a 1-d ``amps`` is a single state.
    Truncation is measured through :func:`tail_mass` and bounded by
    :func:`fits`.
    """

    amps: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amps", _readonly(self.amps))
        if self.amps.ndim < 1 or self.amps.shape[-1] < 2:
            raise ValueError("single-mode amplitudes must have a last axis of length >= 2")

    @property
    def cutoff(self) -> int:
        """Largest retained photon number."""
        return self.amps.shape[-1] - 1

    def rows(self, index) -> FockVector:
        """The states of the batch rows ``index`` (an index or mask on the first axis)."""
        return FockVector(self.amps[index])


@dataclass(frozen=True)
class TwoModeFockVector:
    """Normalized two-mode states, stored in the form their structure allows.

    A product sum sum_i weights[..., i] |u_i> (x) |v_i> stacks its factors in
    ``amps`` of shape (..., 2, k, M+1): ``amps[..., 0, i, :]`` is u_i and
    ``amps[..., -1, i, :]`` is v_i, so when every u_i is v_i the factors are
    stored once, on a mode axis of length 1.  A Schmidt-diagonal state
    sum_n amps[..., n] |n, n> keeps its coefficients as ``amps`` of shape
    (..., M+1) and has ``weights`` None.  The leading axes are the batch.
    """

    amps: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "amps", _readonly(self.amps))
        if self.weights is not None:
            object.__setattr__(self, "weights", _readonly(self.weights))
        w = self.weights
        layouts = [self.amps.shape[:-1]] if w is None else [(*w.shape[:-1], modes, w.shape[-1]) for modes in (1, 2)]
        if self.amps.shape[:-1] not in layouts or self.amps.shape[-1] < 2:
            raise ValueError("two-mode amplitudes must have shape (..., M+1) or (..., 1 or 2, k, M+1), M >= 1")

    @property
    def cutoff(self) -> int:
        """Largest retained photon number in either mode."""
        return self.amps.shape[-1] - 1

    def rows(self, index) -> TwoModeFockVector:
        """The states of the batch rows ``index`` (an index or mask on the first axis)."""
        return TwoModeFockVector(self.amps[index], None if self.weights is None else self.weights[index])


def _running(seed, steps: np.ndarray) -> np.ndarray:
    """Normalized running products seed, seed s_1, seed s_1 s_2, ... along the last axis."""
    seed = np.broadcast_to(np.asarray(seed)[..., None], (*steps.shape[:-1], 1))
    amps = np.cumprod(np.concatenate((seed, steps), axis=-1), axis=-1)
    amps /= np.sqrt(_expect(amps, "1").real)[..., None]
    return amps


def _ratio(r, delta) -> np.ndarray:
    """The squeezed amplitude ratio -e^{i delta} tanh r, with a trailing photon-number axis."""
    if np.any(np.asarray(r) < 0):
        raise ValueError("squeeze magnitude must be non-negative")
    return (-np.exp(1j * np.asarray(delta)) * np.tanh(r))[..., None]


def coherent_vector(alpha, cutoff: int) -> FockVector:
    """Coherent states of amplitudes ``alpha`` truncated at ``cutoff`` photons.

    Amplitudes are the running product c_l = c_0 prod_{k<=l} alpha / sqrt(k),
    seeded with the exact vacuum weight c_0 = exp(-|alpha|^2 / 2); each vector
    is renormalized afterwards so the retained piece is a unit vector.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    alpha = np.asarray(alpha)
    steps = alpha[..., None] / np.sqrt(np.arange(1.0, cutoff + 1))
    return FockVector(_running(np.exp(-0.5 * np.abs(alpha) ** 2), steps))


def squeezed_vacuum_vector(r, delta, cutoff: int) -> FockVector:
    """Squeezed vacua with squeeze magnitudes ``r`` and phases ``delta``.

    Only even photon numbers are populated, as the running product of

        c_{m+2} / c_m = -e^{i delta} tanh r * sqrt((m+1)/(m+2))

    seeded with c_0 = sqrt(sech r).
    """
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2 to hold a photon pair")
    m = np.arange(0.0, cutoff - 1, 2)
    steps = _ratio(r, delta) * np.sqrt((m + 1.0) / (m + 2.0))
    even = _running(np.sqrt(1.0 / np.cosh(r)), steps)
    amps = np.zeros((*even.shape[:-1], cutoff + 1), dtype=complex)
    amps[..., ::2] = even
    return FockVector(amps)


def two_mode_squeezed_vector(r, delta, cutoff: int) -> TwoModeFockVector:
    """Two-mode squeezed vacua as their Schmidt coefficients on ``|n, n>``.

    The coefficients c_n = (-e^{i delta} tanh r)^n / cosh r are the running
    product of the ratio, which keeps the rounding of a sequential recurrence.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    ratio = _ratio(r, delta)
    steps = np.broadcast_to(ratio, (*ratio.shape[:-1], cutoff))
    return TwoModeFockVector(_running(1.0 / np.cosh(r), steps))


def _terms(terms: Sequence[tuple]) -> tuple[int, tuple[int, ...]]:
    """The amplitude length and batch shape of superposition terms (w_i, factor, ...), checked."""
    if not terms:
        raise ValueError("superposition needs at least one term")
    factors = [f for t in terms for f in t[1:]]
    if len({f.amps.shape[-1] for f in factors}) > 1:
        raise ValueError("superposition factors must share a cutoff")
    batch = np.broadcast_shapes(*(np.shape(t[0]) for t in terms), *(f.amps.shape[:-1] for f in factors))
    return factors[0].amps.shape[-1], batch


def superpose(terms: Sequence[tuple[complex, FockVector]]) -> FockVector:
    """Normalized linear combinations sum_i w_i v_i of single-mode vectors.

    Weights and vectors broadcast over the batch, and all terms share a
    cutoff.  Cancellation below ``DEGENERATE_NORM`` in any row raises
    :class:`DegenerateStateError`.
    """
    size, batch = _terms(terms)
    total = np.zeros((*batch, size), dtype=complex)
    for w, v in terms:
        total += np.asarray(w)[..., None] * v.amps
    nrm = np.sqrt(_expect(total, "1").real)
    if np.any(nrm < DEGENERATE_NORM):
        raise DegenerateStateError(f"superposed amplitudes cancel: residual norm {np.min(nrm):.3e}")
    total /= nrm[..., None]
    return FockVector(total)


def superpose_two_mode(terms: Sequence[tuple[complex, FockVector, FockVector]]) -> TwoModeFockVector:
    """Normalized product sums sum_i w_i |u_i> (x) |v_i> from (w_i, u_i, v_i) triples.

    A single triple (1, u, v) is the product state.  Weights and factors
    broadcast over the batch, and all factors share a cutoff; triples whose
    u is v (the same object) in every term store their factors once, on a
    mode axis of length 1.  The norm^2 is a Gram sum with rounding error
    ~1e-16 (sum_i |w_i|)^2, so cancellation is judged on it against
    ``DEGENERATE_NORM2`` at that scale.
    """
    size, batch = _terms(terms)
    w = np.stack([np.broadcast_to(np.asarray(t[0], dtype=complex), batch) for t in terms], axis=-1)
    modes = 1 if all(u is v for _, u, v in terms) else 2
    amps = np.empty((*batch, modes, len(terms), size), dtype=complex)
    for i, (_, *factors) in enumerate(terms):
        for mode in range(modes):
            amps[..., mode, i, :] = factors[mode].amps
    a, b = _grams(amps, ("1",))
    norm2 = _form(w, a["1"] * b["1"]).real
    if np.any(norm2 < DEGENERATE_NORM2 * np.sum(np.abs(w), axis=-1) ** 2):
        raise DegenerateStateError(f"superposed products cancel: residual norm^2 {np.min(norm2):.3e}")
    return TwoModeFockVector(amps, w / np.sqrt(norm2)[..., None])


#: Operators X by name as (shift s, weight w): <m|X|m + s> = w(m) is the only
#: nonzero element of row m.  "tail" projects on the top decile of photon numbers.
_LADDER = {
    "1": (0, None),
    "n": (0, lambda m: m),
    "a": (1, lambda m: np.sqrt(m + 1.0)),
    "a2": (2, lambda m: np.sqrt((m + 1.0) * (m + 2.0))),
    # ab on Schmidt coefficients c_n of |n, n>: <n, n|ab|n+1, n+1> = n + 1.
    "ab": (1, lambda m: m + 1.0),
    "tail": (0, lambda m: (m >= m.size - max(1, m.size // 10)).astype(float)),
}


def _ladder(bra: np.ndarray, ket: np.ndarray, op: str) -> np.ndarray:
    """Matrix elements <bra_i|X|ket_j> by index summation over photon numbers.

    ``bra`` and ``ket`` hold stacks of k vectors, shape (..., k, M+1); the
    result is the (..., k, k) matrix over (i, j), one per batch row.  ``op``
    is a key of ``_LADDER``.
    """
    shift, weight = _LADDER[op]
    size = bra.shape[-1] - shift
    bra = np.conj(bra[..., :size])
    if weight is not None:
        bra *= weight(np.arange(size, dtype=float))
    return bra @ np.swapaxes(ket[..., shift:], -1, -2)


def _expect(amps: np.ndarray, op: str, ket: np.ndarray | None = None) -> np.ndarray:
    """<u|X|v> for single-mode amplitude rows u = ``amps``, v = ``ket`` (default u)."""
    return _ladder(amps[..., None, :], (amps if ket is None else ket)[..., None, :], op)[..., 0, 0]


def _grams(amps: np.ndarray, ops: Sequence[str]) -> tuple[dict, dict]:
    """The Gram matrices <u_i|X|u_j> and <v_i|X|v_j> of a product sum's two
    modes, by operator name; factors stored once (a mode axis of 1) are summed once."""
    ua, ub = amps[..., 0, :, :], amps[..., -1, :, :]
    a = {op: _ladder(ua, ua, op) for op in ops}
    return a, a if amps.shape[-3] == 1 else {op: _ladder(ub, ub, op) for op in ops}


def _form(w: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """sum_ij conj(w_i) w_j gram_ij per batch row: <X (x) Y> of a product sum
    when ``gram`` is <u_i|X|u_j> <v_i|Y|v_j>."""
    return (np.conj(w)[..., None, :] @ gram @ w[..., :, None])[..., 0, 0]


def inner(u: FockVector, v: FockVector, op: str = "1") -> complex:
    """Matrix elements ``<u|X|v>`` (X named as in :func:`_ladder`, default the identity)."""
    if u.amps.shape[-1] != v.amps.shape[-1]:
        raise ValueError("inner product requires matching cutoffs")
    return _expect(u.amps, op, v.amps)[()]


def two_mode_moments(v: FockVector | TwoModeFockVector) -> TwoModeMoments:
    """All quadratic ladder moments of one- or two-mode vectors by index summation.

    A single-mode vector is mode 1 of the record, with mode 2 empty.  Its
    occupation, like a Schmidt-diagonal state's, is the real part of a
    complex expectation value whose imaginary part is rounding alone.  A
    Schmidt-diagonal state has n1 = n2 = sum_n |c_n|^2 n, <ab> =
    sum_n conj(c_n) (n + 1) c_{n+1}, and no channel that changes n1 - n2.
    """
    from .state_families import TwoModeMoments  # which imports this module

    if isinstance(v, FockVector):
        n = _expect(v.amps, "n").real
        zero = np.zeros(n.shape, dtype=complex)[()]
        return TwoModeMoments(n[()], zero.real, _expect(v.amps, "a2")[()], zero, zero, zero)
    if v.weights is None:
        c = v.amps
        n = _expect(c, "n").real[()]
        zero = np.zeros(np.shape(n), dtype=complex)[()]
        return TwoModeMoments(n, n, zero, zero, zero, _expect(c, "ab")[()])
    a, b = _grams(v.amps, ("1", "n", "a2", "a"))
    w = v.weights
    adag = np.swapaxes(a["a"].conj(), -1, -2)  # <u|a^dag|u'> = conj <u'|a|u>
    return TwoModeMoments(
        n1=_form(w, a["n"] * b["1"]).real[()],
        n2=_form(w, a["1"] * b["n"]).real[()],
        a2=_form(w, a["a2"] * b["1"])[()],
        b2=_form(w, a["1"] * b["a2"])[()],
        adag_b=_form(w, adag * b["a"])[()],
        ab=_form(w, a["a"] * b["a"])[()],
    )


def tail_mass(v: FockVector | TwoModeFockVector):
    """Probability carried by the top decile of retained indices, per batch row.

    For two-mode vectors the per-mode decile masses are summed, which upper
    bounds the weight living near either truncation edge.
    """
    if isinstance(v, FockVector):
        return _expect(v.amps, "tail").real[()]
    if v.weights is None:
        return (2.0 * _expect(v.amps, "tail").real)[()]
    a, b = _grams(v.amps, ("tail", "1"))
    return (_form(v.weights, a["tail"] * b["1"]) + _form(v.weights, a["1"] * b["tail"])).real[()]


_State = TypeVar("_State", FockVector, TwoModeFockVector)


@dataclass(frozen=True)
class Fit(Generic[_State]):
    """Rows of a batch that met the tail target at one cutoff.

    ``state`` holds them in the order of ``rows`` (indices into the batch),
    and ``tail`` is each one's :func:`tail_mass` as measured by :func:`fits`.
    """

    rows: np.ndarray
    state: _State
    tail: np.ndarray


def fits(build: Callable[[int, np.ndarray], _State], size: int, target: float, cap: int) -> Iterator[Fit[_State]]:
    """Each row of a batch of ``size`` states at the first cutoff where its own tail is at most ``target``.

    ``build(cutoff, rows)`` makes the states of the batch rows ``rows`` (an
    index array) at ``cutoff``.  Cutoffs 32, 64, 128, ... are stepped through
    in lockstep: at each one, every unresolved row is built in one call (in
    blocks of ``BLOCK_AMPS`` amplitudes per factor when they are many), its
    :func:`tail_mass` measured, and the rows that meet the target are
    yielded as one :class:`Fit` with the very state that was measured.  Past
    ``cap`` the batch is refused with :class:`TruncationError`.  Each row
    thus gets the cutoff it would get on its own, the trials cost at most
    twice the final builds, and a caller that measures each fit as it comes
    holds one block of states at a time.  A row whose tail is NaN is yielded
    at the first cutoff: no larger one mends it, and its NaN moments fail
    every comparison made with them.
    """
    rows = np.arange(size)
    cutoff = 32
    while rows.size:
        if cutoff > cap:
            raise TruncationError(f"no cutoff <= {cap} reaches tail mass {target:.1e}; state spreads too far")
        block = max(1, BLOCK_AMPS // (cutoff + 1))
        missed = []
        for part in (rows[i : i + block] for i in range(0, rows.size, block)):
            state = build(cutoff, part)
            tail = np.atleast_1d(tail_mass(state))
            met = ~(tail > target)
            missed.append(part[~met])
            if met.any():
                yield Fit(part[met], state if met.all() else state.rows(met), tail[met])
        rows = np.concatenate(missed)
        cutoff *= 2


def fitted(build: Callable[[int], _State], target: float, cap: int) -> _State:
    """The first state ``build(cutoff)`` whose own :func:`tail_mass` is at most ``target``.

    A batch of one through :func:`fits`: the state returned is the one
    measured, so truncation is judged on exactly the vector that gets
    compared.
    """
    return next(fits(lambda cutoff, rows: build(cutoff), 1, target, cap)).state
