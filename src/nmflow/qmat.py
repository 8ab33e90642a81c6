"""Dense complex-Hermitian matrix kernel.

Hermiticity checks, partial trace/transpose (also of (..., D, D) stacks),
validated density states and the Pauli matrices.
Everything here is pure and operates on small dense arrays (dims <= 64 total).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .errors import DimMismatchError, NonHermitianError, NotAStateError

HERM_TOL = 1e-10
PSD_SLACK = 1e-10
TRACE_TOL = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z)


def herm_defect(m: np.ndarray) -> float:
    """Max-abs entrywise deviation from M = M^dagger, over a whole stack."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().swapaxes(-1, -2)))) if m.size else 0.0


def require_hermitian(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise NonHermitianError("matrix has non-finite entries")
    defect = herm_defect(m)
    if defect > HERM_TOL:
        raise NonHermitianError(f"Hermiticity defect {defect:.3e} exceeds tolerance {HERM_TOL:.1e}")
    return m


def _check_dims(m: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise DimMismatchError(f"subsystem dimensions must be positive, got {dims}")
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimMismatchError(f"expected a square matrix, got shape {m.shape}")
    if prod(dims) != m.shape[-1]:
        raise DimMismatchError(f"prod{dims} = {prod(dims)} != matrix dim {m.shape[-1]}")
    return dims


def partial_trace(m, dims: Sequence[int], keep: int | Iterable[int]) -> np.ndarray:
    """Trace out every subsystem not listed in `keep`, of one matrix or of
    each matrix of a (..., D, D) stack.

    Kept subsystems retain their original order. `keep` may be a single index
    or an iterable of indices.
    """
    m = np.asarray(m, dtype=complex)
    dims = _check_dims(m, dims)
    n, lead = len(dims), m.shape[:-2]
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep = tuple(sorted(set(int(k) for k in keep)))
    if any(k < 0 or k >= n for k in keep):
        raise DimMismatchError(f"keep indices {keep} out of range for {n} subsystems")
    # One contraction: a traced subsystem shares its row and column label.
    cols = [n + i if i in keep else i for i in range(n)]
    t = np.einsum(m.reshape(lead + dims + dims), [..., *range(n), *cols],
                  [..., *keep, *(n + k for k in keep)])
    d_keep = prod(dims[k] for k in keep) if keep else 1
    return t.reshape(lead + (d_keep, d_keep))


def partial_transpose(m, dims: Sequence[int], subsystem: int) -> np.ndarray:
    """Transpose a single subsystem of a multipartite operator, or of each
    operator of a (..., D, D) stack."""
    m = np.asarray(m, dtype=complex)
    dims = _check_dims(m, dims)
    n, lead = len(dims), m.shape[:-2]
    if subsystem < 0 or subsystem >= n:
        raise DimMismatchError(f"subsystem {subsystem} out of range for {n} subsystems")
    t = m.reshape(lead + dims + dims)
    t = np.swapaxes(t, len(lead) + subsystem, len(lead) + subsystem + n)
    return t.reshape(m.shape)


@dataclass(frozen=True, eq=False)
class DensityState:
    """Finite, Hermitian, unit-trace, PSD matrix together with its subsystem
    dimensions."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, matrix, dims: Sequence[int]):
        matrix = np.asarray(matrix, dtype=complex)
        dims = _check_dims(matrix, dims)
        if matrix.ndim != 2:
            raise DimMismatchError(f"expected one matrix, got shape {matrix.shape}")
        require_hermitian(matrix)
        tr = float(np.real(np.trace(matrix)))
        if abs(tr - 1.0) > TRACE_TOL:
            raise NotAStateError(f"trace {tr} deviates from 1 beyond {TRACE_TOL:.1e}")
        min_eig = float(np.linalg.eigvalsh(matrix)[0])
        if min_eig < -PSD_SLACK:
            raise NotAStateError(f"minimum eigenvalue {min_eig:.3e} below -{PSD_SLACK:.1e}")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "dims", dims)


def maximally_entangled(d: int) -> np.ndarray:
    """Projector onto (1/sqrt(d)) sum_i |ii> on a d x d bipartite space."""
    v = np.eye(d, dtype=complex).ravel() / np.sqrt(d)
    return np.outer(v, v.conj())
