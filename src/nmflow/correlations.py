"""Correlation functionals: von Neumann entropy, mutual information,
negativity, and the closed-form guessing probability of commuting ensembles
with its dual certificate.

All entropies use natural logarithms (nats). Entropy, mutual information and
negativity map one matrix to a float and a (..., D, D) stack to an array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimMismatchError, NonCommutingError
from .qmat import DensityState, _as_matrix, partial_trace, partial_transpose

EIG_FLOOR = 1e-14
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
    m = _as_matrix(rho)
    if m.shape[-1] == 2:
        return qubit_entropy(m)
    if not m.imag.any():
        m = m.real
    v = np.linalg.eigh(m)[1]
    return shannon(np.sum(v.conj() * (m @ v), axis=-2).real)


def _dims_of(rho, dims) -> tuple[np.ndarray, tuple[int, ...]]:
    if isinstance(rho, DensityState):
        return rho.matrix, rho.dims
    if dims is None:
        raise DimMismatchError("dims required for raw matrices")
    return np.asarray(rho, dtype=complex), tuple(int(d) for d in dims)


def mutual_information(rho, dims: Sequence[int] | None = None, cut: int = 1):
    """I = S(rho_A) + S(rho_B) - S(rho_AB) across the bipartition that puts the
    first `cut` subsystems on side A; per matrix of a (..., D, D) stack."""
    m, dims = _dims_of(rho, dims)
    if not 0 < cut < len(dims):
        raise DimMismatchError(f"cut {cut} does not bipartition {len(dims)} subsystems")
    left = partial_trace(m, dims, keep=range(cut))
    right = partial_trace(m, dims, keep=range(cut, len(dims)))
    return entropy(left) + entropy(right) - entropy(m)


def negativity(rho, dims: Sequence[int] | None = None, transpose: int = 0):
    """N = (||rho^(Gamma)||_1 - 1)/2 with the partial transpose on the given
    subsystem; clamped at 0 against rounding; per matrix of a (..., D, D) stack."""
    m, dims = _dims_of(rho, dims)
    pt = partial_transpose(m, dims, transpose)
    norm1 = np.sum(np.abs(np.linalg.eigvalsh(pt)), axis=-1)
    return np.maximum(0.0, 0.5 * (norm1 - 1.0))


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Probability vector plus equally-sized states {p_i, rho_i}."""

    probs: tuple[float, ...]
    states: tuple[np.ndarray, ...]

    def __init__(self, probs: Sequence[float], states: Sequence):
        probs = tuple(float(p) for p in probs)
        states = tuple(_as_matrix(s) for s in states)
        if len(states) < 1 or len(probs) != len(states):
            raise DimMismatchError("ensemble needs matching, nonempty probs and states")
        if (not np.all(np.isfinite(probs)) or min(probs) < -PROB_TOL
                or abs(sum(probs) - 1.0) > PROB_TOL):
            raise DimMismatchError(f"probabilities {probs} invalid")
        d = states[0].shape
        if any(s.shape != d for s in states):
            raise DimMismatchError("ensemble states differ in dimension")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)

    @property
    def size(self) -> int:
        return len(self.probs)

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]


@dataclass(frozen=True, eq=False)
class GuessingResult:
    """Optimal guessing data for a commuting ensemble: the value, the dual
    certificate K (K >= p_i rho_i with Tr K = value), and the optimal
    projective POVM grouped by winning state index."""

    value: float
    certificate: np.ndarray
    povm: tuple[np.ndarray, ...]


def _common_eigenbasis(mats: Sequence[np.ndarray], tol: float) -> np.ndarray:
    rng = np.random.default_rng(1905)
    for _ in range(4):
        w = rng.normal(size=len(mats))
        combo = sum(wi * m for wi, m in zip(w, mats))
        _, u = np.linalg.eigh(combo)
        defect = 0.0
        for m in mats:
            rot = u.conj().T @ m @ u
            defect = max(defect, float(np.max(np.abs(rot - np.diag(np.diag(rot))))))
        if defect <= max(tol, 1e-8):
            return u
    raise NonCommutingError("no common eigenbasis found within tolerance")


def guessing_commuting(ens: Ensemble) -> GuessingResult:
    """Closed-form guessing probability for pairwise-commuting states.

    In the common eigenbasis, P_g = sum_j max_i p_i lambda_{i,j}; the dual
    certificate K is diagonal there with entries max_i p_i lambda_{i,j}, and
    the optimal POVM groups eigenprojectors by the winning index i.
    """
    states = ens.states
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            comm = states[i] @ states[j] - states[j] @ states[i]
            defect = float(np.max(np.abs(comm)))
            if defect > COMM_TOL:
                raise NonCommutingError(
                    f"states {i} and {j} do not commute (defect {defect:.3e})")
    u = _common_eigenbasis(states, COMM_TOL)
    lam = np.stack([np.real(np.diag(u.conj().T @ s @ u)) for s in states])
    weighted = np.asarray(ens.probs)[:, None] * lam
    winners = np.argmax(weighted, axis=0)
    col_max = weighted[winners, np.arange(ens.dim)]
    value = float(np.sum(col_max))
    certificate = (u * col_max) @ u.conj().T
    povm = []
    for i in range(ens.size):
        cols = np.flatnonzero(winners == i)
        p_i = u[:, cols] @ u[:, cols].conj().T if cols.size else np.zeros((ens.dim, ens.dim),
                                                                          dtype=complex)
        povm.append(p_i)
    return GuessingResult(value=value, certificate=certificate, povm=tuple(povm))
