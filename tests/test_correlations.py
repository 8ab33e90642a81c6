from math import prod
from typing import Sequence

import numpy as np
import pytest

from helpers import (
    apply_kraus,
    bell_weights,
    common_eigenbasis,
    guessing_certificate,
    operator_basis,
    probe_pair_at_tau,
    random_density,
    random_kraus,
    random_pure_vector,
    random_unitary,
    trace_distance,
)
from nmflow import channels, correlations, qmat
from nmflow.channels import AffineQubitMap, RateChannel, apply_map, quasi_eternal
from nmflow.correlations import (
    Ensemble,
    entropy,
    guessing_commuting,
    mutual_information,
    negativity,
)
from nmflow.errors import DimMismatchError, NmflowError, NonCommutingError, NonHermitianError
from nmflow.numutil import bisect_root
from nmflow.qmat import SIGMA_X, maximally_entangled, partial_trace

EIG_FLOOR = 1e-14  # Bell weight at or below which bell_mi_derivative counts it as 0


class NotClassicalQuantumError(NmflowError, ValueError):
    """State lacks the classical-quantum block structure sum_i p_i |i><i| (x) rho_i."""


class DegenerateLogError(NmflowError, ValueError):
    """Bell-diagonal derivative undefined because the identity weight p_0 vanishes."""


def guessing_two(rho1, rho2) -> float:
    """Guessing probability of two equiprobable states:
    P_g = (2 + ||rho1 - rho2||_1) / 4, between 1/2 and 1."""
    return 0.5 + 0.5 * trace_distance(rho1, rho2)


def helstrom_two(p1: float, rho1, p2: float, rho2) -> float:
    """Binary discrimination with priors: P_g = (1 + ||p1 rho1 - p2 rho2||_1)/2."""
    a, b = np.asarray(rho1, dtype=complex), np.asarray(rho2, dtype=complex)
    if a.shape != b.shape:
        raise DimMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return 0.5 * (1.0 + float(np.sum(np.abs(np.linalg.eigvalsh(p1 * a - p2 * b)))))


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


def singlet_fraction_cq(rho, dims: Sequence[int], tol: float = 1e-9) -> float:
    """One-sided singlet fraction of a classical-quantum state
    sum_i p_i |i><i| (x) rho_i: equals the guessing probability of {p_i, rho_i}.

    The classical register is the first subsystem; the block basis may be any
    orthonormal basis (searched for if the computational one fails). Branches
    with three or more mutually non-commuting states raise NonCommutingError.
    """
    m, dims = np.asarray(rho, dtype=complex), tuple(dims)
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
            u = common_eigenbasis(herm, tol)
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
    p = bell_weights(ch, t)
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


def test_entropy_pure_and_mixed():
    rng = np.random.default_rng(30)
    v = random_pure_vector(rng, 4)
    assert entropy(np.outer(v, v.conj())) == pytest.approx(0.0, abs=1e-12)
    assert entropy(np.eye(2) / 2) == pytest.approx(np.log(2), rel=1e-12)
    assert entropy(np.eye(6) / 6) == pytest.approx(np.log(6), rel=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_entropy_matches_the_eigvalsh_spectrum(d):
    rng = np.random.default_rng(31 + d)
    stack = np.stack([random_density(rng, d, rank) for rank in (1, 2, d) for _ in range(20)])
    expected = correlations.shannon(np.linalg.eigvalsh(stack))
    np.testing.assert_allclose(entropy(stack), expected, rtol=0, atol=1e-13)
    assert entropy(stack[7]) == pytest.approx(expected[7], abs=1e-13)


def test_qubit_entropy_keeps_the_small_eigenvalue_against_mpmath():
    # Near-pure qubit states, nearly diagonal, smaller eigenvalue 1e-14..1e-10:
    # (tr - r)/2 would leave it ~1e-16 off, up to ~2e-15 of entropy here.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(33)
    small = 10.0 ** rng.uniform(-14.0, -10.0, 200)
    off = np.sqrt(small) * rng.uniform(0.0, 0.9, 200) * np.exp(2j * np.pi * rng.uniform(size=200))
    m = np.array([[[1.0 - s, b], [np.conj(b), s]] for s, b in zip(small, off)])
    with mpmath.workdps(40):
        exact = [-mpmath.fsum(w * mpmath.log(w) for w in mpmath.eighe(
            mpmath.matrix(x.tolist()), eigvals_only=True) if w > 0) for x in m]
    np.testing.assert_allclose(correlations.qubit_entropy(m), np.array(exact, dtype=float),
                               rtol=0, atol=2e-16)


def test_entropy_of_pure_states_stays_near_zero():
    # eigvalsh leaves noise eigenvalues of ~1e-16 (up to 1.5e-14 of entropy on
    # these states); the Rayleigh quotients keep them at the entries' rounding.
    rng = np.random.default_rng(32)
    for d in (3, 4, 6, 12):
        v = rng.normal(size=(500, d)) + 1j * rng.normal(size=(500, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        assert np.max(np.abs(entropy(np.einsum("na,nb->nab", v, v.conj())))) <= 1e-14


def _orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def _real_fragile_states(rng, n=6):
    """Exactly real (dims, stack) pairs from the fragile regimes: pure states
    with a 1e-9 Schmidt tail, spectra split by ~1e-12 and states whose
    marginals are rank-deficient."""
    cases = []
    for dims in ((2, 2), (2, 3), (3, 3)):
        da, db = dims
        k = min(dims)
        weights = np.concatenate([np.ones((n, 1)), 1e-9 * rng.uniform(0.5, 1.0, (n, k - 1))], 1)
        weights = np.sqrt(weights / weights.sum(axis=1, keepdims=True))
        psi = np.stack([(_orthogonal(rng, da)[:, :k] * w) @ _orthogonal(rng, db)[:, :k].T
                        for w in weights]).reshape(n, -1)
        cases.append((dims, np.einsum("na,nb->nab", psi, psi)))
    for dims in ((2, 2), (3, 3)):
        d = prod(dims)
        p = 1.0 / d + 1e-12 * rng.normal(size=(n, d))
        o = np.stack([_orthogonal(rng, d) for _ in range(n)])
        cases.append((dims, np.einsum("nab,nb,ncb->nac", o, p / p.sum(1, keepdims=True), o)))
    v = np.zeros((n, 2, 3, 3))  # supported on span{|0>,|1>} (x) span{|0>,|1>}
    v[:, :, :2, :2] = rng.normal(size=(n, 2, 2, 2))
    v = v.reshape(n, 2, 9) / np.linalg.norm(v.reshape(n, 2, 9), axis=2, keepdims=True)
    w = rng.uniform(size=(n, 2))
    cases.append(((3, 3), np.einsum("nk,nka,nkb->nab", w / w.sum(1, keepdims=True), v, v)))
    return cases


def _mp_entropy(mpmath, m):
    w = mpmath.eigsy(mpmath.matrix(m.tolist()), eigvals_only=True)
    return -mpmath.fsum(x * mpmath.log(x) for x in w if x > 0)


def _mp_mutual_information(mpmath, m, dims):
    # Partial traces of the float entries summed exactly at the working precision.
    r = np.vectorize(mpmath.mpf, otypes=[object])(m).reshape(*dims, *dims)
    left = np.einsum("ibjb->ij", r)
    right = np.einsum("aiaj->ij", r)
    return (_mp_entropy(mpmath, left) + _mp_entropy(mpmath, right)
            - _mp_entropy(mpmath, r.reshape(m.shape)))


def _complex_entropy(m):
    # The same Rayleigh quotients, in complex arithmetic.
    v = np.linalg.eigh(m.astype(complex))[1]
    return correlations.shannon(np.sum(v.conj() * (m @ v), axis=-2).real)


def test_entropy_of_real_stacks_in_real_arithmetic(monkeypatch):
    dtypes = []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, f=np.linalg.eigh: dtypes.append(a.dtype) or f(a))
    rng = np.random.default_rng(34)
    real = random_density(rng, 4, 2).real
    entropy(real)
    entropy(real.astype(complex))
    entropy(np.stack([real, real]))
    entropy(random_density(rng, 4, 2))  # complex entries stay complex
    assert dtypes == [np.float64] * 3 + [np.complex128]


def test_real_entropy_and_mi_against_mpmath():
    # Exactly real stacks and single matrices in the fragile regimes, to 1e-14
    # of the 40-digit values, and within 1e-14 of complex arithmetic.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(35)
    for dims, stack in _real_fragile_states(rng):
        with mpmath.workdps(40):
            exact_s = np.array([float(_mp_entropy(mpmath, m)) for m in stack])
            exact_mi = np.array([float(_mp_mutual_information(mpmath, m, dims)) for m in stack])
        for rho in (stack, stack.astype(complex)):
            np.testing.assert_allclose(entropy(rho), exact_s, rtol=0, atol=1e-14)
            np.testing.assert_allclose(mutual_information(rho, dims), exact_mi,
                                       rtol=0, atol=1e-14)
        for m, s, mi in zip(stack, exact_s, exact_mi):
            assert abs(entropy(m) - s) <= 1e-14
            assert abs(mutual_information(m, dims) - mi) <= 1e-14
        np.testing.assert_allclose(entropy(stack), _complex_entropy(stack), rtol=0, atol=1e-14)


def test_entropy_bell_diagonal_matches_weights():
    ch = quasi_eternal(0.4, 1.0)
    phi = maximally_entangled(2)
    for t in (0.4, 1.1, 2.9):
        p = bell_weights(ch, t)
        evolved = apply_map(ch.as_affine(t), phi, (2, 2))
        expected = -sum(pk * np.log(pk) for pk in p if pk > 1e-14)
        assert entropy(evolved) == pytest.approx(expected, abs=1e-10)


def test_mutual_information_product_and_entangled():
    rng = np.random.default_rng(31)
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    assert mutual_information(np.kron(a, b), (2, 3)) == pytest.approx(0.0, abs=1e-10)
    assert mutual_information(maximally_entangled(2), (2, 2)) == pytest.approx(2 * np.log(2),
                                                                                rel=1e-12)


def _correlated_mixing_state(p: float) -> np.ndarray:
    plus = 0.5 * (np.eye(2) + SIGMA_X)
    minus = 0.5 * (np.eye(2) - SIGMA_X)
    proj0 = np.diag([1.0, 0.0]).astype(complex)
    proj1 = np.diag([0.0, 1.0]).astype(complex)
    return 0.5 * (np.kron(proj0, p * plus + (1 - p) * np.eye(2) / 2)
                  + np.kron(proj1, p * minus + (1 - p) * np.eye(2) / 2))


def test_mutual_information_unital_witness_expression():
    # I(eps) for the correlated mixing state under sigma_x -> (1+2 eps) sigma_x:
    # ((1+p)/2 + p eps) ln(...) + ((1-p)/2 - p eps) ln(...) + ln 2,
    # with derivative p (ln(1+p) - ln(1-p)) at eps = 0.
    for p in (0.2, 0.5, 0.8):
        rho = _correlated_mixing_state(p)
        for eps in (0.0, 0.01, 0.03):
            out = apply_map(AffineQubitMap((1 + 2 * eps, 1.0, 1.0)), rho, (2, 2))
            x1 = (1 + p) / 2 + p * eps
            x2 = (1 - p) / 2 - p * eps
            expected = x1 * np.log(x1) + x2 * np.log(x2) + np.log(2)
            assert mutual_information(out, (2, 2)) == pytest.approx(expected, abs=1e-10)
        h = 1e-6
        lo = apply_map(AffineQubitMap((1 - 2 * h, 1.0, 1.0)), rho, (2, 2))
        hi = apply_map(AffineQubitMap((1 + 2 * h, 1.0, 1.0)), rho, (2, 2))
        deriv = (mutual_information(hi, (2, 2)) - mutual_information(lo, (2, 2))) / (2 * h)
        assert deriv == pytest.approx(p * (np.log(1 + p) - np.log(1 - p)), rel=1e-4)
        assert deriv > 0


def test_negativity_product_and_bell():
    rng = np.random.default_rng(32)
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    assert negativity(np.kron(a, b), (2, 2)) == pytest.approx(0.0, abs=1e-12)
    assert negativity(maximally_entangled(2), (2, 2)) == pytest.approx(0.5, rel=1e-12)


def test_negativity_entanglement_breaking_window():
    ch = quasi_eternal(0.4, 2.0)
    phi = maximally_entangled(2)
    n_before = negativity(apply_map(ch.as_affine(1.40), phi, (2, 2)), (2, 2))
    n_after = negativity(apply_map(ch.as_affine(1.55), phi, (2, 2)), (2, 2))
    assert n_before > 1e-3
    assert n_after == 0.0


def test_trace_distance_and_guessing_two():
    rng = np.random.default_rng(33)
    rho = random_density(rng, 3)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)
    assert guessing_two(rho, rho) == pytest.approx(0.5, abs=1e-14)
    v1 = np.array([1.0, 0.0])
    v2 = np.array([0.0, 1.0])
    assert guessing_two(np.outer(v1, v1), np.outer(v2, v2)) == pytest.approx(1.0, abs=1e-14)
    rho1, rho2 = probe_pair_at_tau(0.3)
    assert guessing_two(rho1, rho2) == pytest.approx(0.65, abs=1e-12)


def test_guessing_commuting_counterexample():
    # Ensemble (0.4, 0.15, 0.45) over {1/2, |0><0|, |1><1|}: P_g = p1/2 + p3;
    # replacing the first two states by their partial mixture lifts it to
    # p1/2 + p2/2 + p3.
    p1, p2, p3 = 0.4, 0.15, 0.45
    rho1 = np.eye(2) / 2
    rho2 = np.diag([1.0, 0.0]).astype(complex)
    rho3 = np.diag([0.0, 1.0]).astype(complex)
    res = guessing_commuting(Ensemble((p1, p2, p3), (rho1, rho2, rho3)))
    assert res.value == pytest.approx(0.65, abs=1e-14)
    mixed = (1 - p2 / p1) * rho1 + (p2 / p1) * rho2
    res2 = guessing_commuting(Ensemble((p1, p2, p3), (mixed, rho1, rho3)))
    assert res2.value == pytest.approx(0.725, abs=1e-14)


def test_guessing_commuting_certificate_and_povm():
    p = (0.4, 0.15, 0.45)
    states = (np.eye(2) / 2, np.diag([1.0, 0.0]).astype(complex),
              np.diag([0.0, 1.0]).astype(complex))
    ens = Ensemble(p, states)
    res = guessing_commuting(ens)
    # Dual certificate: Tr K = value and K >= p_i rho_i, so no POVM does better.
    certificate = guessing_certificate(ens)
    assert float(np.real(np.trace(certificate))) == pytest.approx(res.value, abs=1e-14)
    for pi, rho in zip(p, states):
        gap = certificate - pi * rho
        assert np.linalg.eigvalsh((gap + gap.conj().T) / 2)[0] >= -1e-12
    # The eigenprojectors grouped by winning index form a POVM that achieves it.
    u = common_eigenbasis(states, 1e-9)
    lam = np.stack([np.real(np.diag(u.conj().T @ rho @ u)) for rho in states])
    winners = np.argmax(np.asarray(p)[:, None] * lam, axis=0)
    povm = [u[:, winners == i] @ u[:, winners == i].conj().T for i in range(len(p))]
    achieved = sum(pi * np.real(np.trace(rho @ eff)) for pi, rho, eff in zip(p, states, povm))
    assert achieved == pytest.approx(res.value, abs=1e-12)
    np.testing.assert_allclose(sum(povm), np.eye(2), atol=1e-12)


def test_guessing_commuting_single_state():
    res = guessing_commuting(Ensemble((1.0,), (np.eye(3) / 3,)))
    assert res.value == pytest.approx(1.0, abs=1e-14)


def test_guessing_commuting_rejects_noncommuting():
    plus = 0.5 * (np.eye(2) + SIGMA_X)
    zero = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(NonCommutingError):
        guessing_commuting(Ensemble((0.5, 0.5), (plus, zero)))


def test_guessing_commuting_matches_the_common_eigenbasis():
    # Random commuting ensembles with zero and repeated eigenvalues, and some
    # zero priors, against the entrywise maximum in a common eigenbasis.
    rng = np.random.default_rng(36)
    for _ in range(200):
        d, n = int(rng.integers(2, 7)), int(rng.integers(1, 6))
        u = random_unitary(rng, d)
        states = []
        for _ in range(n):
            w = rng.choice([0.0, 0.0, 1.0, 1.0, 2.0, 3.0], size=d)
            w[rng.integers(d)] += 1.0  # not all zero
            states.append((u * (w / w.sum())) @ u.conj().T)
        probs = rng.dirichlet(np.ones(n)) * (rng.uniform(size=n) > 0.2)
        probs = probs / probs.sum() if probs.sum() > 0 else np.full(n, 1.0 / n)
        ens = Ensemble(probs, states)
        v = common_eigenbasis(ens.states, correlations.COMM_TOL)
        lam = np.stack([np.real(np.diag(v.conj().T @ rho @ v)) for rho in ens.states])
        expected = float(np.sum(np.max(probs[:, None] * lam, axis=0)))
        assert guessing_commuting(ens).value == pytest.approx(expected, abs=1e-13)


def test_guessing_commuting_needs_no_eigenbasis_search():
    # States that pass the commutator check but whose common eigenbasis no
    # random combination resolves to 1e-8; for two states the operator maximum
    # is Helstrom's bound.
    a = 2e-5
    rho1 = np.eye(2) / 2 + a * SIGMA_X
    rho2 = np.diag([0.5 + a, 0.5 - a]).astype(complex)
    res = guessing_commuting(Ensemble((0.3, 0.7), (rho1, rho2)))
    assert res.value == pytest.approx(helstrom_two(0.3, rho1, 0.7, rho2), abs=1e-15)


def test_singlet_fraction_cq():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    perfect = 0.5 * (np.kron(zero, zero) + np.kron(one, one))
    assert singlet_fraction_cq(perfect, (2, 2)) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(34)
    rho = random_density(rng, 2)
    same = 0.5 * (np.kron(zero, rho) + np.kron(one, rho))
    assert singlet_fraction_cq(same, (2, 2)) == pytest.approx(0.5, abs=1e-12)


def test_singlet_fraction_probe_state():
    rho1, rho2 = probe_pair_at_tau(0.3)
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    probe = 0.5 * (np.kron(zero, rho1) + np.kron(one, rho2))
    assert singlet_fraction_cq(probe, (2, 3, 2)) == pytest.approx(0.65, abs=1e-12)


def test_singlet_fraction_rotated_register():
    # Classical-quantum structure in a rotated register basis is still found.
    rng = np.random.default_rng(35)
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 2)
    theta = 0.7
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
                 dtype=complex)
    basis0 = u @ np.array([1.0, 0.0])
    basis1 = u @ np.array([0.0, 1.0])
    state = 0.3 * np.kron(np.outer(basis0, basis0.conj()), rho_a) \
        + 0.7 * np.kron(np.outer(basis1, basis1.conj()), rho_b)
    expected = helstrom_two(0.3, rho_a, 0.7, rho_b)
    assert singlet_fraction_cq(state, (2, 2)) == pytest.approx(expected, abs=1e-9)


def test_singlet_fraction_rejects_entangled():
    with pytest.raises(NotClassicalQuantumError):
        singlet_fraction_cq(maximally_entangled(2), (2, 2))


def test_singlet_fraction_three_commuting_branches():
    p = (0.4, 0.15, 0.45)
    branches = (np.eye(2) / 2, np.diag([1.0, 0.0]).astype(complex),
                np.diag([0.0, 1.0]).astype(complex))
    state = sum(pi * np.kron(np.diag(np.eye(3)[i]).astype(complex), rho)
                for i, (pi, rho) in enumerate(zip(p, branches)))
    expected = guessing_commuting(Ensemble(p, branches)).value
    assert singlet_fraction_cq(state, (3, 2)) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.65, abs=1e-14)


def test_singlet_fraction_noncommuting_branches_raise():
    plus = 0.5 * (np.eye(2) + SIGMA_X)
    branches = (np.eye(2) / 2, plus, np.diag([0.0, 1.0]).astype(complex))
    state = sum(np.kron(np.diag(np.eye(3)[i]).astype(complex), rho) / 3.0
                for i, rho in enumerate(branches))
    with pytest.raises(NonCommutingError):
        singlet_fraction_cq(state, (3, 2))


def test_bell_mi_derivative_matches_finite_difference():
    ch = quasi_eternal(0.4, 1.0)
    phi = maximally_entangled(2)
    h = 1e-4
    for t in (0.5, 1.5, 2.741, 3.5):
        exact = bell_mi_derivative(ch, t)
        i_lo = mutual_information(apply_map(ch.as_affine(t - h), phi, (2, 2)), (2, 2))
        i_hi = mutual_information(apply_map(ch.as_affine(t + h), phi, (2, 2)), (2, 2))
        assert exact == pytest.approx((i_hi - i_lo) / (2 * h), abs=1e-6)


def test_bell_mi_derivative_sign_structure():
    # Eternal model: all dp_k/dt >= 0, so the derivative never turns positive.
    eternal = quasi_eternal(1.0, 0.0)
    for t in np.linspace(0.05, 6.0, 60):
        assert bell_mi_derivative(eternal, float(t)) <= 1e-12
    # Quasi-eternal with t0 = 1: first sign change near 2.741.
    ch = quasi_eternal(0.4, 1.0)
    assert bell_mi_derivative(ch, 2.5) < 0
    assert bell_mi_derivative(ch, 3.0) > 0
    root = bisect_root(lambda t: bell_mi_derivative(ch, t), 2.5, 3.0, tol=1e-5)
    assert root == pytest.approx(2.741, abs=5e-3)


def test_bell_mi_derivative_at_zero():
    ch = quasi_eternal(0.4, 1.0)
    assert bell_mi_derivative(ch, 0.0) == float("-inf")


def test_mi_bell_identity():
    # I(phi(t)) = 2 ln 2 - S({p_k(t)}) in nats.
    ch = quasi_eternal(0.4, 1.0)
    phi = maximally_entangled(2)
    for t in (0.3, 1.7, 4.0):
        evolved = apply_map(ch.as_affine(t), phi, (2, 2))
        p = bell_weights(ch, t)
        s = -sum(pk * np.log(pk) for pk in p if pk > 1e-14)
        assert mutual_information(evolved, (2, 2)) == pytest.approx(2 * np.log(2) - s, abs=1e-10)


def test_mi_data_processing():
    rng = np.random.default_rng(36)
    for _ in range(200):
        rho = random_density(rng, 4)
        before = mutual_information(rho, (2, 2))
        side = int(rng.integers(0, 2))
        kraus = channels.KrausChannel(random_kraus(rng, 2))
        after = mutual_information(apply_map(kraus, rho, (2, 2), subsystem=side), (2, 2))
        assert after <= before + 1e-9


def test_negativity_monotone_under_local_channels():
    rng = np.random.default_rng(37)
    for _ in range(100):
        rho = random_density(rng, 4, rank=2)
        before = negativity(rho, (2, 2))
        kraus = channels.KrausChannel(random_kraus(rng, 2))
        after = negativity(apply_map(kraus, rho, (2, 2), subsystem=1), (2, 2))
        assert after <= before + 1e-9


def test_ensemble_validation():
    with pytest.raises(DimMismatchError):
        Ensemble((0.6, 0.6), (np.eye(2) / 2, np.eye(2) / 2))
    with pytest.raises(DimMismatchError):
        Ensemble((1.0,), (np.eye(2) / 2, np.eye(2) / 2))
    with pytest.raises(DimMismatchError):
        Ensemble((0.5, 0.5), (np.eye(2) / 2, np.eye(3) / 3))
    with pytest.raises(DimMismatchError):
        Ensemble((1.0,), (np.full((2, 3), 1.0 / 6.0),))
    # A non-Hermitian "state" that commutes with the other one.
    with pytest.raises(NonHermitianError):
        Ensemble((0.5, 0.5), (np.array([[0.5, 1.0], [0.0, 0.5]]), np.eye(2) / 2))


@pytest.mark.parametrize("probs", [(np.nan, 0.5, 0.5), (0.4, 0.15, np.nan),
                                   (np.inf, 0.5, -np.inf), (1.0, np.inf, -np.inf)])
def test_ensemble_rejects_non_finite_probabilities(probs):
    # NaN compares False with both tolerance tests, so it needs its own check.
    with pytest.raises(DimMismatchError):
        Ensemble(probs, [np.eye(2) / 2] * 3)
