import itertools

import numpy as np
import pytest

from helpers import (NOT_STATES, OperatorBasis, operator_basis, probe_pair_at_tau, random_density,
                     random_hermitian)
from nmflow import qmat
from nmflow.errors import DimMismatchError, NonHermitianError, NotAStateError
from nmflow.qmat import SIGMA_X, SIGMA_Y, SIGMA_Z, DensityState


def coords(rho, basis: OperatorBasis) -> np.ndarray:
    """Coordinates a_i = Tr(rho e_i) / prod(dims); a_0 = 1/prod(dims) for states."""
    m = np.asarray(rho, dtype=complex)
    if m.shape[0] != basis.total_dim:
        raise DimMismatchError(f"matrix dim {m.shape[0]} != basis dim {basis.total_dim}")
    d = basis.total_dim
    return np.array([np.real(np.trace(m @ e)) / d for e in basis.elements])


def from_coords(a, basis: OperatorBasis) -> DensityState:
    """Inverse of coords: sum_i a_i e_i, validated as a density matrix.

    Raises NotAStateError when the reconstruction fails the trace or PSD checks
    (the offending operator is reported, never silently clamped).
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (basis.size,):
        raise DimMismatchError(f"expected {basis.size} coordinates, got {a.shape}")
    m = np.zeros((basis.total_dim, basis.total_dim), dtype=complex)
    for ai, e in zip(a, basis.elements):
        m += ai * e
    return DensityState(m, basis.dims)


def test_partial_trace_product():
    rng = np.random.default_rng(1)
    a = random_density(rng, 3)
    b = random_density(rng, 2)
    np.testing.assert_allclose(qmat.partial_trace(np.kron(a, b), (3, 2), keep=1), b, atol=1e-13)
    np.testing.assert_allclose(qmat.partial_trace(np.kron(a, b), (3, 2), keep=0), a, atol=1e-13)


def test_partial_trace_max_entangled_reductions():
    phi = qmat.maximally_entangled(2)
    np.testing.assert_allclose(qmat.partial_trace(phi, (2, 2), keep=1), np.eye(2) / 2, atol=1e-14)
    np.testing.assert_allclose(qmat.partial_trace(phi, (2, 2), keep=0), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_dim_mismatch():
    with pytest.raises(DimMismatchError):
        qmat.partial_trace(np.eye(4), (2, 3), keep=0)


def test_partial_transpose_product():
    rng = np.random.default_rng(2)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 2)
    got = qmat.partial_transpose(np.kron(a, b), (2, 2), subsystem=1)
    np.testing.assert_allclose(got, np.kron(a, b.T), atol=1e-14)


def test_partial_transpose_max_entangled_spectrum():
    pt = qmat.partial_transpose(qmat.maximally_entangled(2), (2, 2), subsystem=0)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(pt)), [-0.5, 0.5, 0.5, 0.5], atol=1e-14)


def test_partial_transpose_involutive_bit_exact():
    rng = np.random.default_rng(3)
    m = random_hermitian(rng, 6)
    twice = qmat.partial_transpose(qmat.partial_transpose(m, (2, 3), 1), (2, 3), 1)
    assert np.array_equal(twice, m)


def test_coords_maximally_mixed():
    basis = operator_basis((2, 2))
    a = coords(np.eye(4) / 4, basis)
    np.testing.assert_allclose(a, [0.25] + [0.0] * 15, atol=1e-15)


def test_coords_max_entangled():
    # Oracle: direct trace inner products, computed here without coords.
    basis = operator_basis((2, 2))
    phi = qmat.maximally_entangled(2)
    a = coords(phi, basis)
    expected = np.array([np.real(np.trace(phi @ e)) / 4.0 for e in basis.elements])
    np.testing.assert_allclose(a, expected, atol=1e-15)
    # Nonzero only on identity, XX, YY, ZZ with values 1/4, 1/4, -1/4, 1/4.
    idx = {0: 0.25, 5: 0.25, 10: -0.25, 15: 0.25}
    for i, ai in enumerate(a):
        assert ai == pytest.approx(idx.get(i, 0.0), abs=1e-14)


def test_probe_state_pauli_coordinates():
    # rho1 carries p/4 on XX, -p/4 on YY, p/4 on ZZ over the embedded Paulis.
    p = 0.45
    rho1, _ = probe_pair_at_tau(p)
    for op2, sign in ((SIGMA_X, 1.0), (SIGMA_Y, -1.0), (SIGMA_Z, 1.0)):
        emb = np.zeros((3, 3), dtype=complex)
        emb[:2, :2] = op2
        e = np.kron(emb, op2)
        coeff = np.real(np.trace(rho1 @ e)) / np.real(np.trace(e @ e))
        assert coeff == pytest.approx(sign * p / 4.0, abs=1e-14)


def test_from_coords_round_trip():
    rng = np.random.default_rng(4)
    basis = operator_basis((2, 2))
    for _ in range(50):
        rho = qmat.DensityState(random_density(rng, 4), (2, 2))
        back = from_coords(coords(rho.matrix, basis), basis)
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-12)


@pytest.mark.parametrize("matrix, error", NOT_STATES.values(), ids=NOT_STATES)
def test_density_state_rejects_non_states(matrix, error):
    with pytest.raises(error):
        DensityState(matrix, (2, 2))


def test_from_coords_rejects_non_state():
    basis = operator_basis((2,))
    a = np.array([0.5, 0.9, 0.0, 0.0])  # Bloch length > 1: not PSD
    with pytest.raises(NotAStateError):
        from_coords(a, basis)


def test_operator_basis_orthonormality():
    for dims in ((2,), (2, 2), (3, 2)):
        basis = operator_basis(dims)
        d = basis.total_dim
        assert basis.size == d * d
        np.testing.assert_allclose(basis.elements[0], np.eye(d), atol=0)
        gram = np.array([[np.trace(a @ b) for b in basis.elements] for a in basis.elements])
        np.testing.assert_allclose(gram, d * np.eye(d * d), atol=1e-12)
        for e in basis.elements:
            assert qmat.herm_defect(e) == 0.0


def test_partial_trace_kron_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        da = int(rng.integers(2, 5))
        db = int(rng.integers(2, 5))
        a = random_hermitian(rng, da)
        b = random_hermitian(rng, db)
        got = qmat.partial_trace(np.kron(a, b), (da, db), keep=0)
        np.testing.assert_allclose(got, np.trace(b) * a, atol=1e-12)


def test_partial_trace_preserves_trace_and_linearity():
    rng = np.random.default_rng(8)
    m1 = random_hermitian(rng, 12)
    m2 = random_hermitian(rng, 12)
    t1 = qmat.partial_trace(m1, (2, 3, 2), keep=(0, 2))
    assert np.trace(t1) == pytest.approx(np.trace(m1), abs=1e-12)
    lin = qmat.partial_trace(2.0 * m1 - 0.5 * m2, (2, 3, 2), keep=(0, 2))
    np.testing.assert_allclose(lin, 2.0 * t1 - 0.5 * qmat.partial_trace(m2, (2, 3, 2), keep=(0, 2)),
                               atol=1e-12)


def _partial_trace_axis_by_axis(m, dims, keep):
    """Trace the subsystems out one at a time, last first, with np.trace."""
    lead, n = m.shape[:-2], len(dims)
    t, remaining = m.reshape(lead + dims + dims), n
    for i in [i for i in range(n) if i not in keep][::-1]:
        t = np.trace(t, axis1=len(lead) + i, axis2=len(lead) + i + remaining)
        remaining -= 1
    d_keep = int(np.prod([dims[k] for k in keep]))
    return t.reshape(lead + (d_keep, d_keep))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2)])
def test_partial_trace_matches_axis_by_axis_traces(dims):
    # Equal for every keep; where several subsystems are traced out the sums
    # run in another order, so the last bits may differ.
    rng = np.random.default_rng(10)
    d = int(np.prod(dims))
    stack = np.stack([random_hermitian(rng, d) for _ in range(5)])
    for size in range(len(dims) + 1):
        for keep in itertools.combinations(range(len(dims)), size):
            got = qmat.partial_trace(stack, dims, keep)
            want = _partial_trace_axis_by_axis(stack, dims, keep)
            if len(dims) - size <= 1:
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3, 2)])
def test_partial_trace_and_transpose_of_stacks(dims):
    # Each matrix of a (2, 3, D, D) stack gives what it gives on its own.
    rng = np.random.default_rng(9)
    d = int(np.prod(dims))
    stack = np.stack([[random_hermitian(rng, d) for _ in range(3)] for _ in range(2)])
    for keep in (0, (0, len(dims) - 1), ()):
        got = qmat.partial_trace(stack, dims, keep)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(got[i, j], qmat.partial_trace(stack[i, j], dims, keep))
    for sub in range(len(dims)):
        got = qmat.partial_transpose(stack, dims, sub)
        assert got.shape == stack.shape
        for i in range(2):
            for j in range(3):
                assert np.array_equal(got[i, j], qmat.partial_transpose(stack[i, j], dims, sub))
    with pytest.raises(DimMismatchError):
        qmat.partial_trace(stack[..., :-1], dims, 0)
    with pytest.raises(DimMismatchError):
        qmat.DensityState(np.stack([np.eye(d) / d] * 2), dims)
