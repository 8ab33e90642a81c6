"""Correlation functionals: von Neumann entropy, mutual information,
negativity, and the guessing probability of commuting ensembles as the trace
of their operator maximum.

All entropies use natural logarithms (nats). Entropy, mutual information and
negativity take a matrix or a (..., D, D) stack of them, with its subsystem
dimensions where they need them, and map one matrix to a float and a stack
to an array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimMismatchError, NonCommutingError
from .qmat import partial_trace, partial_transpose, require_hermitian

PROB_TOL = 1e-10
COMM_TOL = 1e-9


def shannon(p: np.ndarray):
    """Shannon entropy -sum_k p_k ln p_k of probability vectors along the last
    axis; weights <= 0 contribute 0 (p ln p -> 0 is continuous, so no floor)."""
    return -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1)


def qubit_entropy(m: np.ndarray):
    """Entropy of a 2x2 density matrix or a (..., 2, 2) stack in closed form: the
    larger eigenvalue (tr + r)/2 from the Bloch length r, the smaller det/larger,
    which keeps its relative accuracy where tr - r cancels (near-pure states)."""
    a, d, b2 = m[..., 0, 0].real, m[..., 1, 1].real, np.abs(m[..., 0, 1]) ** 2
    big = (a + d + np.sqrt((a - d) ** 2 + 4.0 * b2)) / 2.0
    # Two one-weight terms: stacking the pair costs a copy.
    return shannon(big[..., None]) + shannon(((a * d - b2) / big)[..., None])


def entropy(rho):
    """Von Neumann entropy -Tr(rho ln rho), the Shannon entropy of the spectrum.
    A float for one matrix, an array of entropies for a (..., D, D) stack.

    eigvalsh returns the ~1e-14 eigenvalues of near-pure states only to ~1e-16,
    ~3e-15 of entropy each. Qubits take `qubit_entropy`; larger matrices the
    Rayleigh quotients v^H rho v of eigh's eigenvectors, which carry only the
    entries' own rounding. Exactly real input runs in real arithmetic.
    """
    m = np.asarray(rho, dtype=complex)
    if m.shape[-1] == 2:
        return qubit_entropy(m)
    if not m.imag.any():
        m = m.real
    v = np.linalg.eigh(m)[1]
    return shannon(np.sum(v.conj() * (m @ v), axis=-2).real)


def mutual_information(rho, dims: Sequence[int]):
    """I = S(rho_A) + S(rho_B) - S(rho_AB) across the bipartition that puts the
    first subsystem on side A; per matrix of a (..., D, D) stack. Another split
    is a grouping of the dims: (2, 3, 2) split after two subsystems is (6, 2)."""
    m = np.asarray(rho, dtype=complex)
    if len(dims) < 2:
        raise DimMismatchError(f"{len(dims)} subsystem(s) cannot be bipartitioned")
    left = partial_trace(m, dims, keep=0)
    right = partial_trace(m, dims, keep=range(1, len(dims)))
    return entropy(left) + entropy(right) - entropy(m)


def negativity(rho, dims: Sequence[int]):
    """N = (||rho^(Gamma)||_1 - 1)/2 with the partial transpose on the first
    subsystem (rho^(T_B) = (rho^(T_A))^T has the same spectrum); clamped at 0
    against rounding; per matrix of a (..., D, D) stack."""
    m = np.asarray(rho, dtype=complex)
    pt = partial_transpose(m, dims, 0)
    norm1 = np.sum(np.abs(np.linalg.eigvalsh(pt)), axis=-1)
    return np.maximum(0.0, 0.5 * (norm1 - 1.0))


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Probability vector plus equally-sized Hermitian states {p_i, rho_i}."""

    probs: tuple[float, ...]
    states: tuple[np.ndarray, ...]

    def __init__(self, probs: Sequence[float], states: Sequence):
        probs = tuple(float(p) for p in probs)
        states = tuple(np.asarray(s, dtype=complex) for s in states)
        if len(states) < 1 or len(probs) != len(states):
            raise DimMismatchError("ensemble needs matching, nonempty probs and states")
        if (not np.all(np.isfinite(probs)) or min(probs) < -PROB_TOL
                or abs(sum(probs) - 1.0) > PROB_TOL):
            raise DimMismatchError(f"probabilities {probs} invalid")
        d = states[0].shape
        if len(d) != 2 or d[0] != d[1] or any(s.shape != d for s in states):
            raise DimMismatchError("ensemble states must be square and of one dimension")
        for s in states:
            require_hermitian(s)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)


@dataclass(frozen=True)
class GuessingResult:
    """The optimal guessing probability of a commuting ensemble."""

    value: float


def guessing_commuting(ens: Ensemble) -> GuessingResult:
    """Closed-form guessing probability for pairwise-commuting states:
    P_g = Tr max_i p_i rho_i, the operator maximum, built pairwise as
    M <- (M + p_i rho_i + |M - p_i rho_i|)/2. For commuting operators that is
    the entrywise maximum in their common eigenbasis, which commutes with every
    remaining state, so P_g = sum_j max_i p_i lambda_{i,j}, attained by the
    eigenprojectors grouped by their winning index i."""
    states = ens.states
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            comm = states[i] @ states[j] - states[j] @ states[i]
            defect = float(np.max(np.abs(comm)))
            if defect > COMM_TOL:
                raise NonCommutingError(
                    f"states {i} and {j} do not commute (defect {defect:.3e})")
    top = ens.probs[0] * states[0]
    for p, s in zip(ens.probs[1:], states[1:]):
        vals, vecs = np.linalg.eigh(top - p * s)
        top = (top + p * s + (vecs * np.abs(vals)) @ vecs.conj().T) / 2.0
    return GuessingResult(value=float(np.trace(top).real))
