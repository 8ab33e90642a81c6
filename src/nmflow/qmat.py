"""Dense complex-Hermitian matrix kernel.

Hermiticity checks, partial trace/transpose (also of (..., D, D) stacks),
validated density states, the Pauli matrices, and the eigenvalues of a stack
of 4x4 Hermitian matrices by cyclic Jacobi.
Everything here is pure and operates on small dense arrays (dims <= 64 total).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, DimMismatchError, NonHermitianError, NotAStateError

HERM_TOL = 1e-10
PSD_SLACK = 1e-10
TRACE_TOL = 1e-10
JACOBI_MAX_SWEEPS = 16  # sweeps after which jacobi_eigvalsh4 gives up on a matrix
EPS_MACHINE = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)  # the smallest normal float

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


def _jacobi_plan():
    # Per rotation (p, q), in sweep order: its slot among the six upper
    # entries and, per other index r, the slots of the entries in columns p
    # and q of row r and where r lies: 0 for r < p (both stored as A[r, p] and
    # A[r, q]), 1 for r > q (both stored conjugated, as A[p, r] and A[q, r]),
    # 2 between (A[p, r] and A[r, q]).
    upper = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    slot = {pq: k for k, pq in enumerate(upper)}
    plan = []
    for p, q in ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)):
        moves = []
        for r in sorted({0, 1, 2, 3} - {p, q}):
            where = 0 if r < p else 1 if r > q else 2
            moves.append((slot[min(r, p), max(r, p)], slot[min(r, q), max(r, q)], where))
        plan.append((p, q, slot[p, q], tuple(moves)))
    return upper, tuple(plan)


_JACOBI_UPPER, _JACOBI_PLAN = _jacobi_plan()
# The (row, column) of the ten entries the kernel reads: diagonal, then upper.
_JACOBI_ENTRIES = tuple((i, i) for i in range(4)) + tuple(_JACOBI_UPPER)


def jacobi_eigvalsh4(m) -> np.ndarray:
    """Eigenvalues of each matrix of a Hermitian stack, real or complex, by
    cyclic Jacobi: an (M, 4) array, in no fixed order, the transposed view of
    a C-ordered (4, M) one, so that a sum over the four eigenvalues of every
    matrix runs over rows. The stack is an (M, 4, 4) array, or the (10, M)
    array of its entry rows: a_00, a_11, a_22, a_33, then a_01, a_02, a_03,
    a_12, a_13, a_23, the layout in which the MI scans' products come. Reads
    the upper triangle and the real part of the diagonal, and writes nothing
    of its input.

    A sweep is three rounds of two disjoint pairs, (0,1)(2,3), (0,2)(1,3),
    (0,3)(1,2), on the diagonal and the six upper entries, each held as one
    array over the stack. Each rotation carries the phase w = a_pq / |a_pq|
    (the sign of a real entry), so both dtypes run the same code, and sets
    its entry to exactly 0: exact zeros stay zero, and an X state is diagonal
    after one sweep. A matrix's eigenvalues are its diagonal before the first
    sweep at which max |a_pq| <= eps max |a_ii|, so they depend on that
    matrix alone, not on the stack around it: further rotations of a matrix
    that has left touch no other one, and the stack drops them once half of
    it has left.

    The rotation's tangent, sign(h) |a_pq| / (|h| + sqrt(h^2 + |a_pq|^2)) with
    h = (a_qq - a_pp) / 2, has no quotient that overflows at a tiny a_pq;
    entries beyond ~1e150 in magnitude may overflow its squares. A matrix
    still above the bound after JACOBI_MAX_SWEEPS sweeps, as one with a NaN
    entry is, raises ConvergenceError.
    """
    m = np.asarray(m)
    if m.ndim == 3 and m.shape[1:] == (4, 4):
        rows = [m[:, i, j] for i, j in _JACOBI_ENTRIES]
    elif m.ndim == 2 and len(m) == 10:
        rows = list(m)
    else:
        raise DimMismatchError(f"need an (M, 4, 4) stack or its (10, M) rows, got shape {m.shape}")
    # The sweeps update their own copies in place, each row an array of its
    # own: on rows of one (10, M) array they ran 3% slower.
    diag = [row.real.copy() for row in rows[:4]]
    upper = [row.copy() for row in rows[4:]]
    out = np.empty((4, len(diag[0])))
    todo = np.arange(out.shape[1])  # the matrices in the stack
    pending = np.ones(todo.size, dtype=bool)  # those still in the stack whose eigenvalues are due
    conj = np.iscomplexobj(upper[0])
    real = [np.empty(todo.size) for _ in range(6)]
    work = [np.empty(todo.size, upper[0].dtype) for _ in range(6 if conj else 3)]
    sweeps = 0
    while True:
        mag, h, den, t, c, tmp = (row[:todo.size] for row in real)
        off, bound = np.abs(upper[0], out=den), np.abs(diag[0], out=h)
        for entry in upper[1:]:
            np.maximum(off, np.abs(entry, out=tmp), out=off)
        for entry in diag[1:]:
            np.maximum(bound, np.abs(entry, out=tmp), out=bound)
        bound *= EPS_MACHINE
        stay = ~(off <= bound)  # NaN stays
        left = pending & ~stay
        if left.all():  # the whole stack leaves, with no matrix left before
            # With no matrix gone from the stack, a slice: it copies ~7x faster.
            at = todo if todo.size < out.shape[1] else slice(None)
            for row, entry in zip(out, diag):
                row[at] = entry
            return out.T
        if left.any():
            at = todo[left]
            for row, entry in zip(out, diag):
                row[at] = entry[left]
            pending &= stay
            if not pending.any():
                return out.T
            # The stack keeps a matrix that has left, whose further rotations
            # touch no other, until half of the stack has left.
            if 2 * np.count_nonzero(pending) <= pending.size:
                todo, off = todo[pending], off[pending]
                diag = [entry[pending] for entry in diag]
                upper = [entry[pending] for entry in upper]
                pending = pending[pending]
                mag, h, den, t, c, tmp = (row[:todo.size] for row in real)
        if sweeps == JACOBI_MAX_SWEEPS:
            raise ConvergenceError(f"{np.count_nonzero(pending)} matrices still off-diagonal "
                                   f"after {sweeps} Jacobi sweeps (largest residual "
                                   f"{np.max(off[pending]):.3e})")
        sweeps += 1
        sw, ay, bx, *conjugates = (row[:todo.size] for row in work)
        for p, q, k, moves in _JACOBI_PLAN:
            a = upper[k]
            np.abs(a, out=mag)
            np.subtract(diag[q], diag[p], out=h)
            h *= 0.5
            np.multiply(h, h, out=den)
            den += np.multiply(mag, mag, out=tmp)
            np.sqrt(den, out=den)
            den += np.abs(h, out=tmp)
            np.maximum(den, TINY, out=den)  # 0 only where a_pq = 0, which gives t = 0
            np.divide(mag, den, out=t)
            np.copysign(t, h, out=t)
            np.multiply(t, t, out=c)
            c += 1.0
            np.sqrt(c, out=c)
            np.divide(1.0, c, out=c)
            mag *= t
            diag[p] -= mag
            diag[q] += mag
            t *= c  # the sine
            np.sign(a, out=sw)
            sw *= t
            scw = np.conjugate(sw, out=conjugates[0]) if conj else sw
            a.fill(0.0)
            # Column p and q of each other row r: x' = c x - s conj(w) y and
            # y' = s w x + c y, conjugated where the entry is stored as A[p, r].
            for i, j, where in moves:
                x, y = upper[i], upper[j]
                if where == 0:
                    al, be, xc, yc = scw, sw, x, y
                elif where == 1:
                    al, be, xc, yc = sw, scw, x, y
                else:
                    al, be, xc, yc = sw, sw, x, y
                    if conj:
                        xc, yc = (np.conjugate(x, out=conjugates[1]),
                                  np.conjugate(y, out=conjugates[2]))
                np.multiply(al, yc, out=ay)
                np.multiply(be, xc, out=bx)
                np.multiply(c, x, out=x)
                x -= ay
                np.multiply(c, y, out=y)
                y += bx
