"""Shared helpers for the test suite: random matrices, states, and channels."""

from __future__ import annotations

import numpy as np

from nmflow import qmat
from nmflow.errors import DimMismatchError, NonHermitianError, NotAStateError
from nmflow.qmat import _as_matrix


# 4x4 matrices that are not density matrices, with the error each must raise.
NOT_STATES = {
    "nan": (np.full((4, 4), np.nan), NonHermitianError),
    "inf": (np.diag([np.inf, 0.0, 0.0, 0.0]), NonHermitianError),
    "trace 2": (np.eye(4) / 2, NotAStateError),
    "non-Hermitian": (np.eye(4) / 4 + np.triu(np.full((4, 4), 0.1), 1), NonHermitianError),
    "negative eigenvalue": (np.diag([0.6, 0.5, 0.2, -0.3]), NotAStateError),
}


def random_hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (g + g.conj().T) / 2.0


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    """Full-rank (or fixed-rank) random density matrix from the Ginibre ensemble."""
    k = rank or d
    g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def random_pure_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_kraus(rng: np.random.Generator, d: int, n_kraus: int = 3) -> list[np.ndarray]:
    """Random CPTP channel on dimension d via a Haar isometry (Stinespring)."""
    g = rng.normal(size=(d * n_kraus, d)) + 1j * rng.normal(size=(d * n_kraus, d))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return [q[k * d:(k + 1) * d, :] for k in range(n_kraus)]


def apply_kraus(kraus: list[np.ndarray], rho: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rho)
    for k in kraus:
        out += k @ rho @ k.conj().T
    return out


def embed_qubit_op(op2: np.ndarray, d: int = 3) -> np.ndarray:
    """Embed a 2x2 operator in the top-left block of a d x d matrix."""
    m = np.zeros((d, d), dtype=complex)
    m[:2, :2] = op2
    return m


def probe_pair_at_tau(p: float) -> tuple[np.ndarray, np.ndarray]:
    """The distinguishability-reviving state pair on qutrit (x) qubit at time tau.

    rho1 = (|0><0| + |1><1|) (x) 1/4 + p (XX - YY + ZZ)/4   (Paulis embedded)
    rho2 = ((1-p)(|0><0| + |1><1|)/2 + p |2><2|) (x) 1/2
    """
    eye2 = np.eye(2, dtype=complex)
    q2 = embed_qubit_op(eye2)
    proj2 = np.zeros((3, 3), dtype=complex)
    proj2[2, 2] = 1.0
    xx = np.kron(embed_qubit_op(qmat.SIGMA_X), qmat.SIGMA_X)
    yy = np.kron(embed_qubit_op(qmat.SIGMA_Y), qmat.SIGMA_Y)
    zz = np.kron(embed_qubit_op(qmat.SIGMA_Z), qmat.SIGMA_Z)
    rho1 = np.kron(q2, eye2) / 4.0 + p * (xx - yy + zz) / 4.0
    rho2 = np.kron((1.0 - p) * q2 / 2.0 + p * proj2, eye2 / 2.0)
    return rho1, rho2


def trace_distance(rho, sigma) -> float:
    """D(rho, sigma) = ||rho - sigma||_1 / 2."""
    a, b = _as_matrix(rho), _as_matrix(sigma)
    if a.shape != b.shape:
        raise DimMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))
