"""Dense complex-Hermitian matrix kernel.

Eigendecomposition, partial trace/transpose (also of (..., D, D) stacks),
trace norm, validated density states, and an orthogonal Hermitian operator
basis normalized to Tr(e_i e_j) = delta_ij * prod(dims), with e_0 = identity.
Everything here is pure and operates on small dense arrays (dims <= 64 total).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def _as_matrix(obj) -> np.ndarray:
    return obj.matrix if isinstance(obj, DensityState) else np.asarray(obj, dtype=complex)


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


def herm_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues sorted descending, eigenvectors as matching columns).
    Raises NonHermitianError if the symmetry defect exceeds HERM_TOL.
    """
    m = require_hermitian(_as_matrix(m))
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def herm_eigvals(m) -> np.ndarray:
    """Descending eigenvalues of a Hermitian matrix, or of each matrix of a stack."""
    m = require_hermitian(_as_matrix(m))
    return np.linalg.eigvalsh(m)[..., ::-1]


def trace_norm(m):
    """Trace norm ||M||_1 of a Hermitian matrix: sum of |eigenvalues|; an array
    of norms for an (..., n, n) stack."""
    norms = np.sum(np.abs(herm_eigvals(m)), axis=-1)
    return float(norms) if norms.ndim == 0 else norms


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
    m = _as_matrix(m)
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
    m = _as_matrix(m)
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

    def reduced(self, keep: int | Iterable[int]) -> "DensityState":
        if isinstance(keep, (int, np.integer)):
            keep = (int(keep),)
        keep = tuple(sorted(set(int(k) for k in keep)))
        sub = partial_trace(self.matrix, self.dims, keep)
        return DensityState(sub, tuple(self.dims[k] for k in keep))


def maximally_entangled(d: int) -> np.ndarray:
    """Projector onto (1/sqrt(d)) sum_i |ii> on a d x d bipartite space."""
    v = np.eye(d, dtype=complex).ravel() / np.sqrt(d)
    return np.outer(v, v.conj())


def _gell_mann(d: int) -> list[np.ndarray]:
    """Traceless Hermitian basis of dimension d, normalized to Tr(g_i g_j) = d*delta_ij.

    For d = 2 this reduces exactly to (sigma_x, sigma_y, sigma_z).
    """
    scale = np.sqrt(d / 2.0)
    out: list[np.ndarray] = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1.0
            out.append(scale * m)
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            out.append(scale * m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        for j in range(l):
            m[j, j] = 1.0
        m[l, l] = -float(l)
        out.append(scale * np.sqrt(2.0 / (l * (l + 1))) * m)
    return out


def _site_elements(d: int) -> list[np.ndarray]:
    if d == 2:
        # Fixed qubit ordering: identity, sigma_x, sigma_y, sigma_z.
        return [p.copy() for p in PAULIS]
    return [np.eye(d, dtype=complex)] + _gell_mann(d)


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """Ordered Hermitian operator basis e_i on a tensor-product space.

    e_0 is the identity, Tr(e_i e_j) = delta_ij * prod(dims), and elements are
    lexicographic tensor products of per-site bases (identity first at each
    site). For qubit (x) qubit this is the 16-element Pauli-product table with
    the second factor varying fastest.
    """

    dims: tuple[int, ...]
    elements: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def total_dim(self) -> int:
        return prod(self.dims)


def operator_basis(dims: Sequence[int]) -> OperatorBasis:
    dims = tuple(int(d) for d in dims)
    sites = [_site_elements(d) for d in dims]
    elements = sites[0]
    for nxt in sites[1:]:
        elements = [np.kron(a, b) for a in elements for b in nxt]
    return OperatorBasis(dims=dims, elements=tuple(elements))
