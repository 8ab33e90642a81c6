import itertools

import numpy as np
import pytest

from helpers import (NOT_STATES, OperatorBasis, operator_basis, probe_pair_at_tau, random_density,
                     random_hermitian, random_unitary)
from nmflow import qmat
from nmflow.errors import ConvergenceError, DimMismatchError, NonHermitianError, NotAStateError
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


# ---------------------------------------------------------------------------
# jacobi_eigvalsh4
# ---------------------------------------------------------------------------

def _orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def _jacobi_cases(rng, n=16):
    """Named (n', 4, 4) stacks from the regimes of the mutual-information scan."""
    from nmflow.channels import ConstantRate, GadcChannel, RateChannel, _apply_superops
    from nmflow.witness import sample_pure_vectors

    def spectra(weights, bases):
        return np.einsum("nab,nb,ncb->nac", bases, weights, bases.conj())

    real = lambda: np.stack([_orthogonal(rng, 4) for _ in range(n)])
    unitary = lambda: np.stack([random_unitary(rng, 4) for _ in range(n)])
    near = 0.25 + 1e-12 * rng.normal(size=(n, 4))
    near /= near.sum(axis=1, keepdims=True)
    pair = np.tile([0.5, 0.5 - 1e-9, 7e-10, 3e-10], (n, 1))
    cases = {"near-degenerate real": spectra(near, real()),
             "near-degenerate complex": spectra(near, unitary()),
             "degenerate pair and small pair": spectra(pair / pair.sum(1, keepdims=True), real())}
    for tail in (1e-6, 1e-9):  # pure joint states, as at t = 0
        schmidt = np.array([np.sqrt(1.0 - tail * tail), 0.0, 0.0, tail])
        for name, local in (("real", lambda: np.kron(_orthogonal(rng, 2), _orthogonal(rng, 2))),
                            ("complex", lambda: np.kron(random_unitary(rng, 2),
                                                        random_unitary(rng, 2)))):
            v = np.stack([local() @ schmidt for _ in range(n)])
            cases[f"rank 1, Schmidt tail {tail:g}, {name}"] = np.einsum("na,nb->nab", v, v.conj())
    cases["rank 2"] = np.stack([random_density(rng, 4, 2) for _ in range(n)])
    cases["rank 2 real"] = np.stack([random_density(rng, 4, 2).real for _ in range(n)])
    probe = np.array([[np.sqrt(1.0 - 1e-6), 0.0, 0.0, 1e-3]])
    gadc = GadcChannel().as_affine(np.linspace(0.1, 0.35, n)).superop.real
    cases["GADC probe X states"] = _apply_superops(gadc, np.einsum("na,nb->nab", probe, probe),
                                                   (2, 2), 1)[:, 0]
    anisotropic = RateChannel(ConstantRate(0.1), ConstantRate(0.4), ConstantRate(0.25))
    v = sample_pure_vectors((2, 2), n // 2, seed=3)
    cases["anisotropic RateChannel, complex"] = _apply_superops(
        anisotropic.as_affine(np.array([0.0, 0.7])).superop, np.einsum("na,nb->nab", v, v.conj()),
        (2, 2), 1).reshape(-1, 4, 4)
    return cases


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_jacobi_eigvalsh4_against_mpmath():
    # The 40-digit spectra of the float matrices: every eigenvalue within
    # 2 eps (LAPACK's eigvalsh missed by up to 1.1e-15 on these classes). The
    # X states keep their exact zeros, so their eigenvalues carry only the
    # rounding of their own 2x2 block: 1e-21 where eigvalsh missed by 1e-16.
    mpmath = pytest.importorskip("mpmath")
    for name, stack in _jacobi_cases(np.random.default_rng(71)).items():
        with mpmath.workdps(40):
            exact = np.array([[float(x) for x in sorted(mpmath.eighe(
                mpmath.matrix(m.tolist()), eigvals_only=True))] for m in stack])
        got = np.sort(qmat.jacobi_eigvalsh4(stack), axis=-1)
        assert np.max(np.abs(got - exact)) <= 2 * qmat.EPS_MACHINE, name
        if name.startswith("GADC"):
            assert np.all(stack[:, [0, 0, 1, 1], [1, 2, 0, 3]] == 0.0)
            np.testing.assert_allclose(got, exact, rtol=2 * qmat.EPS_MACHINE, atol=1e-21,
                                       err_msg=name)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_jacobi_eigvalsh4_gives_a_matrix_the_same_bits_in_any_stack():
    # A matrix leaves the stack on its own residual, so its eigenvalues, in
    # their order, do not depend on the other matrices, their order or their
    # number; and a real stack runs the same rotations as its complex copy.
    rng = np.random.default_rng(72)
    cases = list(_jacobi_cases(rng, n=8).values())
    for stack in (np.concatenate([c.real for c in cases if not np.any(c.imag)]),
                  np.concatenate([c.astype(complex) for c in cases])):
        full = qmat.jacobi_eigvalsh4(stack)
        order = rng.permutation(len(stack))
        assert np.array_equal(qmat.jacobi_eigvalsh4(stack[order]), full[order])
        for size in (1, 2, 7):
            pick = rng.choice(len(stack), size, replace=False)
            assert np.array_equal(qmat.jacobi_eigvalsh4(stack[pick]), full[pick])
    real = np.concatenate([c.real for c in cases if not np.any(c.imag)])
    assert np.array_equal(qmat.jacobi_eigvalsh4(real.astype(complex)),
                          qmat.jacobi_eigvalsh4(real))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_jacobi_eigvalsh4_tiny_entries_and_edge_stacks():
    # A tiny a_pq next to a gap, or on equal diagonals, rotates without an
    # overflowing quotient; a diagonal or zero matrix needs no sweep.
    stack = np.zeros((6, 4, 4))
    stack[:, range(4), range(4)] = [0.5, 0.3, 0.2, 0.0]
    for k, tiny in enumerate((1e-300, 5e-324, 1e-160)):
        stack[k, 0, 1] = stack[k, 1, 0] = tiny
    stack[3, range(4), range(4)] = 0.25
    stack[3, 2, 3] = stack[3, 3, 2] = 1e-300
    stack[4] = 0.0
    got = np.sort(qmat.jacobi_eigvalsh4(stack), axis=-1)
    np.testing.assert_array_equal(got[[0, 1, 2, 5]], np.tile([0.0, 0.2, 0.3, 0.5], (4, 1)))
    np.testing.assert_array_equal(got[3], [0.25 - 1e-300, 0.25, 0.25, 0.25 + 1e-300])
    np.testing.assert_array_equal(got[4], np.zeros(4))
    assert qmat.jacobi_eigvalsh4(np.zeros((0, 4, 4))).shape == (0, 4)
    for bad in (np.zeros((4, 4)), np.zeros((2, 3, 3)), np.zeros((2, 4, 4, 1))):
        with pytest.raises(DimMismatchError):
            qmat.jacobi_eigvalsh4(bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_jacobi_eigvalsh4_ends_within_its_sweep_bound(monkeypatch):
    # A NaN entry never meets the stopping rule: the call raises after
    # JACOBI_MAX_SWEEPS sweeps and names the residual. Generic matrices need
    # more than one sweep, the X states of the GADC probes exactly one.
    rng = np.random.default_rng(73)
    stack = np.stack([random_density(rng, 4) for _ in range(5)])
    stack[2, 0, 3] = np.nan
    with pytest.raises(ConvergenceError, match=r"^1 matrices .* after 16 .*residual nan"):
        qmat.jacobi_eigvalsh4(stack)
    monkeypatch.setattr(qmat, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError, match="after 1 Jacobi sweeps"):
        qmat.jacobi_eigvalsh4(np.delete(stack, 2, axis=0))
    x_states = _jacobi_cases(rng, n=8)["GADC probe X states"]
    assert qmat.jacobi_eigvalsh4(x_states).shape == (8, 4)


def _entry_rows(stack):
    return np.array([stack[:, i, j] for i, j in qmat._JACOBI_ENTRIES])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_jacobi_eigvalsh4_takes_entry_rows_with_the_same_bits():
    # The MI scans hand the kernel a stack as its (10, M) entry rows. Those
    # give the (M, 4, 4) stack's bits, the input stays as it was, and the
    # result is the transposed view of a C-ordered (4, M) array.
    from nmflow import witness
    from nmflow.channels import quasi_eternal
    cases = list(_jacobi_cases(np.random.default_rng(74), n=4).values())
    for stack in (np.concatenate([c.astype(complex) for c in cases]),
                  np.concatenate([c.real for c in cases if not np.any(c.imag)])):
        for size in (0, 1, 2, len(stack)):
            rows = _entry_rows(stack[:size])
            kept = rows.copy()
            got = qmat.jacobi_eigvalsh4(rows)
            assert np.array_equal(got, qmat.jacobi_eigvalsh4(stack[:size]))
            assert np.array_equal(rows, kept)
            assert got.shape == (size, 4) and got.T.flags.c_contiguous
    # A scan chunk of 12,800 matrices: 100 Haar states at 128 times, in the
    # rotated basis of min_t_nm_scan's first block.
    vectors = witness.sample_pure_vectors((2, 2), 100, seed=74)
    coords, terms, _, _ = witness._mi_setup(quasi_eternal(0.4, 1.0), vectors,
                                            np.linspace(1.0, 2.5, 128))
    rows = witness._combine(coords, 0, 128, witness._block_basis(coords, 64, terms))
    rows = rows.reshape(10, -1)
    assert rows.shape == (10, 12_800)
    assert np.array_equal(qmat.jacobi_eigvalsh4(rows),
                          qmat.jacobi_eigvalsh4(witness._hermitian(rows)))
    for bad in (np.zeros((9, 5)), np.zeros((10,)), np.zeros((10, 3, 1))):
        with pytest.raises(DimMismatchError):
            qmat.jacobi_eigvalsh4(bad)


def test_jacobi_eigvalsh4_rows_with_a_nan_entry_raise():
    stack = np.stack([random_density(np.random.default_rng(75), 4) for _ in range(3)])
    rows = _entry_rows(stack)
    rows[7, 1] = np.nan  # a_12 of the second matrix
    with pytest.raises(ConvergenceError, match=r"^1 matrices .* after 16 .*residual nan"):
        qmat.jacobi_eigvalsh4(rows)
