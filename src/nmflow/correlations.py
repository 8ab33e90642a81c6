"""Correlation functionals: von Neumann entropy, mutual information,
negativity, trace distance, guessing probabilities (two-state closed form and
the commuting-ensemble closed form with dual certificate), the one-sided
singlet fraction of classical-quantum states, and the Bell-diagonal mutual
information derivative of random-unitary qubit channels.

All entropies use natural logarithms (nats). Entropy, mutual information and
negativity map one matrix to a float and a (..., D, D) stack to an array.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

import numpy as np

from .channels import RateChannel
from .errors import (
    DegenerateLogError,
    DimMismatchError,
    NonCommutingError,
    NotClassicalQuantumError,
)
from .qmat import DensityState, _as_matrix, operator_basis, partial_trace, partial_transpose

EIG_FLOOR = 1e-14
PROB_TOL = 1e-10
COMM_TOL = 1e-9


def entropy(rho):
    """Von Neumann entropy -Tr(rho ln rho); eigenvalues below 1e-14 contribute 0.
    A float for one matrix, an array of entropies for a (..., D, D) stack."""
    vals = np.linalg.eigvalsh(_as_matrix(rho))
    return -np.sum(vals * np.log(np.where(vals > EIG_FLOOR, vals, 1.0)), axis=-1)


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


def trace_distance(rho, sigma) -> float:
    """D(rho, sigma) = ||rho - sigma||_1 / 2."""
    a, b = _as_matrix(rho), _as_matrix(sigma)
    if a.shape != b.shape:
        raise DimMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def guessing_two(rho1, rho2) -> float:
    """Guessing probability of two equiprobable states:
    P_g = (2 + ||rho1 - rho2||_1) / 4, between 1/2 and 1."""
    return 0.5 + 0.5 * trace_distance(rho1, rho2)


def helstrom_two(p1: float, rho1, p2: float, rho2) -> float:
    """Binary discrimination with priors: P_g = (1 + ||p1 rho1 - p2 rho2||_1)/2."""
    a, b = _as_matrix(rho1), _as_matrix(rho2)
    if a.shape != b.shape:
        raise DimMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return 0.5 * (1.0 + float(np.sum(np.abs(np.linalg.eigvalsh(p1 * a - p2 * b)))))


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
        if min(probs) < -PROB_TOL or abs(sum(probs) - 1.0) > PROB_TOL:
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


def guessing_commuting(ens: Ensemble, comm_tol: float = COMM_TOL) -> GuessingResult:
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
            if defect > comm_tol:
                raise NonCommutingError(
                    f"states {i} and {j} do not commute (defect {defect:.3e})")
    u = _common_eigenbasis(states, comm_tol)
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


def _cq_blocks(m: np.ndarray, d_cls: int, d_q: int, tol: float) -> list[tuple[float, np.ndarray]] | None:
    blocks = m.reshape(d_cls, d_q, d_cls, d_q)
    off = 0.0
    for i in range(d_cls):
        for j in range(d_cls):
            if i != j:
                off = max(off, float(np.max(np.abs(blocks[i, :, j, :]))))
    if off > tol:
        return None
    out = []
    for i in range(d_cls):
        b = blocks[i, :, i, :]
        p = float(np.real(np.trace(b)))
        if p > 1e-12:
            out.append((p, b / p))
    return out


def singlet_fraction_cq(rho, dims: Sequence[int] | None = None, tol: float = 1e-9) -> float:
    """One-sided singlet fraction of a classical-quantum state
    sum_i p_i |i><i| (x) rho_i: equals the guessing probability of {p_i, rho_i}.

    The classical register is the first subsystem; the block basis may be any
    orthonormal basis (searched for if the computational one fails). Branches
    with three or more mutually non-commuting states raise NonCommutingError.
    """
    m, dims = _dims_of(rho, dims)
    if len(dims) < 2:
        raise DimMismatchError("need a classical register plus a quantum part")
    d_cls = dims[0]
    d_q = prod(dims[1:])
    branches = _cq_blocks(m, d_cls, d_q, tol)
    if branches is None:
        # Try to rotate the register: top operators Tr_q[rho (1 (x) sigma)] must
        # commute for classical-quantum states, and their common eigenbasis
        # diagonalizes the register blocks.
        tops = []
        for sigma in operator_basis((d_q,)).elements:
            tops.append(partial_trace(m @ np.kron(np.eye(d_cls), sigma), (d_cls, d_q), keep=0))
        herm = []
        for tM in tops:
            herm.append((tM + tM.conj().T) / 2.0)
            herm.append((tM - tM.conj().T) / 2.0j)
        try:
            u = _common_eigenbasis(herm, tol)
        except NonCommutingError as exc:
            raise NotClassicalQuantumError("register blocks cannot be diagonalized") from exc
        rot = np.kron(u.conj().T, np.eye(d_q)) @ m @ np.kron(u, np.eye(d_q))
        branches = _cq_blocks(rot, d_cls, d_q, tol)
        if branches is None:
            raise NotClassicalQuantumError("state is not classical-quantum within tolerance")
    if len(branches) == 1:
        return 1.0
    if len(branches) == 2:
        (p1, r1), (p2, r2) = branches
        return helstrom_two(p1, r1, p2, r2)
    ens = Ensemble([p for p, _ in branches], [r for _, r in branches])
    return guessing_commuting(ens).value


def bell_mi_derivative(ch: RateChannel, t: float) -> float:
    """d/dt of the mutual information of an evolved maximally entangled pair,
    sum_k (dp_k/dt) ln(p_k / p_0) over k in {x, y, z}.

    Returns -inf when some p_k vanishes while dp_k/dt > 0 (the entropy grows
    with unbounded slope, e.g. at t = 0)."""
    p = ch.probs(t)
    dp = ch.probs_derivative(t)
    if p[0] <= EIG_FLOOR:
        raise DegenerateLogError(f"p_0(t={t}) = {p[0]}: derivative formula undefined")
    total = 0.0
    for k in (1, 2, 3):
        if p[k] <= EIG_FLOOR:
            # Weight pinned at zero (e.g. p_z of the eternal model): no
            # contribution; a genuinely growing weight makes the slope -inf.
            if abs(dp[k]) <= 1e-10:
                continue
            if dp[k] > 0:
                return float("-inf")
            raise DegenerateLogError(f"p_{k}(t={t}) = 0 with negative derivative")
        total += dp[k] * np.log(p[k] / p[0])
    return float(total)
