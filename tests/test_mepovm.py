from math import prod
from typing import Sequence

import numpy as np
import pytest

from helpers import (
    NOT_STATES,
    back_operator,
    plain_seesaw_starts,
    probe_pair_at_tau,
    random_density,
    random_hermitian,
    random_pure_vector,
    random_unitary,
    seesaw_reference,
    seesaw_reference_starts,
    solve_x,
    solve_x_diagonal,
)
from nmflow import channels, mepovm, qmat
from nmflow.errors import (
    ConfigParseError,
    DimMismatchError,
    NonHermitianError,
    NotAStateError,
    NotYetNonMarkovianError,
    UnphysicalProbeError,
)
from nmflow.mepovm import (
    MePovm2,
    build_probe,
    c2_A,
    c2_B,
    construct_me_povm,
    povm_count_bound,
)
from nmflow.qmat import maximally_entangled


def c2(rho, dims: Sequence[int], **kwargs) -> float:
    """Symmetrized measure: max of the A-side and B-side optima."""
    return max(c2_A(rho, dims, **kwargs).value, c2_B(rho, dims, **kwargs).value)


def povm_of(res, rho_a: np.ndarray) -> MePovm2:
    """The ME-POVM {(1 + x)/2, (1 - x)/2} of a see-saw result, checked by MePovm2
    to be a POVM with outcome probability 1/2 each on rho_a."""
    p1 = (np.eye(len(res.x)) + res.x) / 2.0
    return MePovm2((p1, np.eye(len(res.x)) - p1), rho_a)


def outcome_probs(povm: MePovm2, rho: np.ndarray) -> tuple[float, float]:
    return tuple(float(np.real(np.trace(rho @ e))) for e in povm.effects)


def test_construct_me_povm_maximally_mixed():
    rho = np.eye(2) / 2
    povm = construct_me_povm(rho)
    assert outcome_probs(povm, rho) == pytest.approx((0.5, 0.5), abs=1e-12)


def test_construct_me_povm_diagonal():
    rho = np.diag([0.7, 0.3]).astype(complex)
    povm = construct_me_povm(rho)
    np.testing.assert_allclose(povm.effects[0], np.diag([5.0 / 7.0, 0.0]), atol=1e-12)
    assert outcome_probs(povm, rho) == pytest.approx((0.5, 0.5), abs=1e-12)


def test_construct_me_povm_pure():
    rng = np.random.default_rng(40)
    v = random_pure_vector(rng, 3)
    rho = np.outer(v, v.conj())
    povm = construct_me_povm(rho)
    np.testing.assert_allclose(povm.effects[0], 0.5 * rho, atol=1e-10)
    assert outcome_probs(povm, rho) == pytest.approx((0.5, 0.5), abs=1e-10)


def test_construct_me_povm_random_marginals():
    rng = np.random.default_rng(41)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        rho = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
        povm = construct_me_povm(rho)  # validation happens in the constructor
        p1, p2 = outcome_probs(povm, rho)
        assert abs(p1 - 0.5) <= 1e-9 and abs(p2 - 0.5) <= 1e-9


@pytest.mark.parametrize("rho_a, error", [
    *NOT_STATES.values(), (np.ones((2, 3)), DimMismatchError), (np.ones(3), DimMismatchError),
    (np.diag([-0.5, 1.5]), NotAStateError)], ids=[*NOT_STATES, "2x3", "vector", "trace 1, not PSD"])
def test_construct_me_povm_rejects_non_states(rho_a, error):
    with pytest.raises(error):
        construct_me_povm(rho_a)


def test_c2_a_product_state():
    rng = np.random.default_rng(43)
    rho = np.kron(random_density(rng, 2), random_density(rng, 3))
    res = c2_A(rho, (2, 3), restarts=4)
    assert res.value <= 1e-7


def test_c2_a_maximally_entangled():
    res = c2_A(maximally_entangled(2), (2, 2), restarts=4)
    assert res.value == pytest.approx(0.5, abs=1e-9)
    # The optimal measurement is projective: effects are rank-one projectors.
    for e in povm_of(res, np.eye(2) / 2).effects:
        vals = np.linalg.eigvalsh(e)
        assert vals[-1] == pytest.approx(1.0, abs=1e-7)
        assert vals[0] == pytest.approx(0.0, abs=1e-7)


def test_c2_a_probe_matches_closed_form():
    p = 0.3
    rho1, rho2 = probe_pair_at_tau(p)
    e00 = np.diag([1.0, 0.0]).astype(complex)
    e11 = np.diag([0.0, 1.0]).astype(complex)
    probe = 0.5 * (np.kron(e00, rho1) + np.kron(e11, rho2))
    res = c2_A(probe, (2, 3, 2), cut=1)
    assert res.value == pytest.approx(p / 2.0, abs=1e-7)
    # ME defect of the returned POVM.
    rho_a = qmat.partial_trace(probe, (2, 6), keep=0)
    q1 = float(np.real(np.trace(rho_a @ povm_of(res, rho_a).effects[0])))
    assert abs(q1 - 0.5) <= 1e-8


def test_c2_symmetric_state_and_probe_dominance():
    phi = maximally_entangled(2)
    va = c2_A(phi, (2, 2), restarts=4).value
    vb = c2_B(phi, (2, 2), restarts=4).value
    assert va == pytest.approx(0.5, abs=1e-9)
    assert vb == pytest.approx(0.5, abs=1e-9)
    assert c2(phi, (2, 2), restarts=4) == pytest.approx(0.5, abs=1e-9)

    p = 0.3
    rho1, rho2 = probe_pair_at_tau(p)
    e00 = np.diag([1.0, 0.0]).astype(complex)
    e11 = np.diag([0.0, 1.0]).astype(complex)
    probe = 0.5 * (np.kron(e00, rho1) + np.kron(e11, rho2))
    va = c2_A(probe, (2, 3, 2), cut=1).value
    vb = c2_B(probe, (2, 3, 2)).value
    assert vb <= va + 1e-7
    assert c2(probe, (2, 3, 2)) == pytest.approx(p / 2.0, abs=1e-7)


def test_c2_local_optimality_guard():
    # The optimizer value dominates the eigenbasis ME-POVM and random feasible
    # ME-POVMs.
    rng = np.random.default_rng(44)
    rho = random_density(rng, 4, rank=3)
    res = c2_A(rho, (2, 2), seed=7)
    rho4 = rho.reshape(2, 2, 2, 2)
    rho_a = qmat.partial_trace(rho, (2, 2), keep=0)

    def objective(x):
        delta = np.einsum("aicj,ca->ij", rho4, x)
        return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh((delta + delta.conj().T) / 2))))

    app_f = construct_me_povm(rho_a)
    assert res.value >= objective(app_f.effects[0] - app_f.effects[1]) - 1e-9
    for _ in range(64):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (h + h.conj().T) / 2
        x = solve_x(h, rho_a)  # random feasible vertex of the X polytope
        assert res.value >= objective(x) - 1e-9


def _bisection_sign_trace(m, rho_a, mu):
    vals, vecs = np.linalg.eigh(m - mu * rho_a)
    s = np.where(vals >= 0.0, 1.0, -1.0)
    r = np.real(np.einsum("ik,ij,jk->k", vecs.conj(), rho_a, vecs))
    return float(np.sum(s * r))


def _bisection_multiplier(m, rho_a):
    """Reference multiplier for the X step `solve_x`: bisection on
    g(mu) = Tr rho_a sign(m - mu rho_a) over [-1, 1] (||m||_2 + 1) / lambda_min
    for full-rank rho_a, or over a bracket found by doubling otherwise.

    It bisects until the bracket stops shrinking. A cap of 44 steps leaves
    Tr(X m) up to ~4e-10 away from the optimum on random 6x6 problems, an
    error that would otherwise be charged to the code under test.
    """
    scale = float(np.linalg.norm(m, 2)) + 1.0
    rho_a_min = float(np.linalg.eigvalsh(rho_a)[0])
    if rho_a_min > 1e-12:
        hi = scale / rho_a_min
        lo = -hi
    else:
        lo, hi = -scale, scale
        for _ in range(80):
            if _bisection_sign_trace(m, rho_a, lo) > 0:
                break
            lo *= 2.0
        for _ in range(80):
            if _bisection_sign_trace(m, rho_a, hi) < 0:
                break
            hi *= 2.0
    mu = 0.5 * (lo + hi)
    while lo < mu < hi:
        g = _bisection_sign_trace(m, rho_a, mu)
        if g == 0.0:
            break
        if g > 0:
            lo = mu
        else:
            hi = mu
        mu = 0.5 * (lo + hi)
    return mu


def _solve_x_cases():
    """(label, m, rho_a) triples covering each branch of the multiplier step."""
    rng = np.random.default_rng(47)
    cases = []
    for d in (2, 3, 6):
        for _ in range(12):
            m = random_hermitian(rng, d)
            cases.append((f"full rank d={d}", m / np.linalg.norm(m, 2), random_density(rng, d)))
        # Ill-conditioned but full rank: the pencil's breakpoints spread to ~1e9.
        u = random_unitary(rng, d)
        spectrum = np.append(1e-9, rng.uniform(0.2, 1.0, d - 1))
        rho = (u * (spectrum / spectrum.sum())) @ u.conj().T
        cases.append((f"ill-conditioned d={d}", random_hermitian(rng, d), rho))
        # Kinks: every breakpoint coincides (m = c rho_a), the marginal of a
        # product state, and a classical-quantum state.
        rho = random_density(rng, d)
        cases.append((f"m = c rho_a d={d}", float(rng.normal()) * rho, rho))
        y = random_hermitian(rng, 2)
        prod = np.kron(rho, random_density(rng, 2)).reshape(d, 2, d, 2)
        cases.append((f"product d={d}", back_operator(prod, y), rho))
        weights = rng.dirichlet(np.ones(d))
        cq = sum(w * np.kron(np.diag(np.eye(d)[i]), random_density(rng, 2))
                 for i, w in enumerate(weights)).reshape(d, 2, d, 2)
        cases.append((f"classical-quantum d={d}", back_operator(cq, y),
                      np.diag(weights).astype(complex)))
        # Near-degenerate breakpoints: merged into one (1e-13), two kinks or
        # a sliver of smooth segment between them (1e-11), well apart (1e-6).
        for gap in (1e-13, 1e-11, 1e-6):
            chol = np.linalg.cholesky(random_density(rng, d))
            nus = rng.normal(size=d)
            nus[1] = nus[0] + gap
            cases.append((f"gap {gap:g} d={d}", (chol * nus) @ chol.conj().T,
                          chol @ chol.conj().T))
    for _ in range(12):
        cases.append(("singular d=3 rank 2", random_hermitian(rng, 3), random_density(rng, 3, rank=2)))
    # Qubit cases of the closed form: nearly pure rho_a, rho_a = 1/2 (no
    # Bloch axis), c parallel to r, optima on the seam u.x = 0, and c = 0.
    for lam in (1e-9, 1e-11):
        rho = _qubit_rho(rng, 1.0 - 2.0 * lam)
        for _ in range(4):
            cases.append((f"lambda_min {lam:g} d=2", random_hermitian(rng, 2), rho))
        cases.append((f"m = c rho_a lambda_min {lam:g} d=2", float(rng.normal()) * rho, rho))
    for _ in range(4):
        cases.append(("rho_a = 1/2 d=2", random_hermitian(rng, 2), np.eye(2, dtype=complex) / 2))
    for e in (0.3, 0.9, 1.0 - 2e-9):
        rho = _qubit_rho(rng, e)
        r = np.array([np.real(np.trace(rho @ p)) for p in qmat.PAULIS[1:]])
        perp = np.cross(r, rng.normal(size=3))
        for label, c in (("c parallel to r", rng.normal() * r),
                         ("seam", perp / np.linalg.norm(perp) + 0.1 * e * r)):
            cases.append((f"{label} e={e:g} d=2", _qubit_m(rng, c, r), rho))
    # Singular marginals of the widest and the narrowest rank.
    for d in (4, 6):
        for rank in (1, d - 1):
            for _ in range(4):
                cases.append((f"singular d={d} rank {rank}", random_hermitian(rng, d),
                              random_density(rng, d, rank=rank)))
    return cases


def _qubit_rho(rng, e):
    """Qubit state with a random Bloch vector of length e."""
    r = rng.normal(size=3)
    return (np.eye(2) + sum(x * p for x, p in zip(e * r / np.linalg.norm(r), qmat.PAULIS[1:]))) / 2


def _qubit_m(rng, c, r):
    """m = a 1 + b.sigma with b = c + a r for a random a: the objective vector c."""
    a = rng.normal()
    return a * np.eye(2) + sum(b * p for b, p in zip(c + a * r, qmat.PAULIS[1:]))


@pytest.mark.parametrize("label,m,rho_a", _solve_x_cases())
def test_solve_x_matches_bisection(label, m, rho_a):
    # By strong duality the optimum of Tr(X m) equals Tr|m - mu rho_a| at the
    # multiplier, so the reference value needs no X rebuilt at mu.
    m = (m + m.conj().T) / 2.0
    x = solve_x(m, rho_a)
    mu = _bisection_multiplier(m, rho_a)
    optimum = float(np.sum(np.abs(np.linalg.eigvalsh(m - mu * rho_a))))
    assert float(np.real(np.trace(x @ m))) == pytest.approx(optimum, abs=1e-10)
    assert abs(float(np.real(np.trace(rho_a @ x)))) <= 1e-10
    eig = np.linalg.eigvalsh((x + x.conj().T) / 2.0)
    assert -1.0 - 1e-12 <= eig[0] and eig[-1] <= 1.0 + 1e-12


@pytest.mark.parametrize("d", [3, 4, 6])
def test_singular_marginal_bracket_holds(monkeypatch, d):
    # By duality g(mu) = Tr rho_a sign(m - mu rho_a) is positive below the
    # bracket that `_pencil_x` hands the Newton steps and negative above it,
    # for every rank of a singular rho_a and m from 1e-6 to 1e3 in scale.
    brackets = []
    newton = mepovm._newton_multiplier
    monkeypatch.setattr(mepovm, "_newton_multiplier",
                        lambda m, rho_a, lo, hi, *a: brackets.append((m, rho_a, lo, hi))
                        or newton(m, rho_a, lo, hi, *a))
    rng = np.random.default_rng(64)
    for rank in range(1, d):
        for scale in (1e-6, 1.0, 1e3):
            for _ in range(20):
                lam, v, _ = mepovm._eigen_split(random_density(rng, d, rank=rank))
                mepovm._pencil_x(v.conj().T @ random_hermitian(rng, d, scale) @ v, lam)
    assert len(brackets) == 60 * (d - 1)
    for m, rho_a, lo, hi in brackets:
        assert _bisection_sign_trace(m, rho_a, lo) > 0 > _bisection_sign_trace(m, rho_a, hi)


@pytest.mark.parametrize("label,m,rho_a", [
    case for case in _solve_x_cases() if case[0].startswith(("product", "classical-quantum"))])
def test_solve_x_lands_on_kinks_directly(monkeypatch, label, m, rho_a):
    # Product and classical-quantum marginals put the multiplier exactly on a
    # breakpoint; the bisection over at most 7 breakpoints probes 3 of them.
    # A qubit side takes the closed form and no eigendecomposition at all. The
    # rounds run in the eigenbasis of rho_a, taken once per call to c2_A.
    lam, v, _ = mepovm._eigen_split(rho_a)
    m = v.conj().T @ m @ v
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    solve_x_diagonal(m, lam)
    assert len(calls) <= (0 if len(m) == 2 else 3)


def test_seesaw_matches_per_start_reference():
    # All starts in lockstep give what each start gives on its own.
    rng = np.random.default_rng(48)
    for k in range(66):
        d_a, d_b = ((2, 2), (2, 3), (2, 6))[k % 3]
        rho = random_density(rng, d_a * d_b)
        if k % 4 == 0:  # near-product
            rho = 0.999 * np.kron(random_density(rng, d_a), random_density(rng, d_b)) + 0.001 * rho
        x0 = random_hermitian(rng, d_a) if k % 5 == 0 else None
        res = c2_A(rho, (d_a, d_b), restarts=3, seed=k, x0=x0)
        assert res.value == pytest.approx(seesaw_reference(rho, d_a, d_b, 3, k, x0)[0], abs=1e-9)
        swapped = rho.reshape(d_a, d_b, d_a, d_b).transpose(1, 0, 3, 2).reshape(rho.shape)
        assert c2_B(rho, (d_a, d_b), restarts=3, seed=k).value == pytest.approx(
            seesaw_reference(swapped, d_b, d_a, 3, k)[0], abs=1e-9)


def _qubit_side_cases():
    """(label, rho, dims, measure, x0) where the see-saw runs on a qubit side in
    Pauli coordinates, in the regimes where its rounding is most fragile."""
    rng = np.random.default_rng(50)
    cases = []
    for d_b in (2, 3, 6):
        # Near-pure rho_A: a Schmidt weight of 1e-9, so 1 - e^2 is ~4e-9.
        u_a, u_b = random_unitary(rng, 2), random_unitary(rng, d_b)
        psi = np.sqrt(1.0 - 1e-9) * np.kron(u_a[:, 0], u_b[:, 0]) \
            + np.sqrt(1e-9) * np.kron(u_a[:, 1], u_b[:, 1])
        cases.append(("near-pure rho_A", np.outer(psi, psi.conj()), (2, d_b), c2_A, None))
        generic = random_density(rng, 2 * d_b)
        near = (1.0 - 1e-6) * np.kron(random_density(rng, 2), random_density(rng, d_b)) \
            + 1e-6 * generic
        cases.append(("near-product", near, (2, d_b), c2_A, None))
        r1, r2 = random_density(rng, d_b), random_density(rng, d_b)
        cq = 0.3 * np.kron(np.diag([1.0, 0.0]), r1) + 0.7 * np.kron(np.diag([0.0, 1.0]), r2)
        cases.append(("classical-quantum", cq, (2, d_b), c2_A, None))
        # A diagonal rho_A gives M = Tr(rho_B Y) rho_A exactly, so c = 0.
        prod = np.kron(np.diag([0.7, 0.3]), random_density(rng, d_b))
        cases.append(("product", prod, (2, d_b), c2_A, None))
        # Warm start from the optimum of a nearby state.
        x0 = c2_A(0.99 * generic + 0.01 * random_density(rng, 2 * d_b), (2, d_b), restarts=1).x
        cases.append(("warm start", generic, (2, d_b), c2_A, x0))
    for d_a in (3, 6):
        cases.append(("B side", random_density(rng, 2 * d_a), (d_a, 2), c2_B, None))
    # Optima on each face of the feasible set: the seam r.x = 0, where the
    # Newton step runs on a great circle, and a cap, where it runs on the sphere.
    faces = {}
    while len(faces) < 2:
        rho = random_density(rng, 6)
        faces.setdefault(_face(rho, (2, 3)), rho)
    cases += [(f"{face} optimum", rho, (2, 3), c2_A, None) for face, rho in sorted(faces.items())]
    # A steered difference with an eigenvalue within ~1e-10 of 0, so the
    # Hessian's divided differences reach ~1e10: a qubit pair on the first two
    # levels of B, mixed with 1e-10 of a state on all three.
    pair = np.zeros((2, 3, 2, 3), dtype=complex)
    pair[:, :2, :, :2] = random_density(rng, 4).reshape(2, 2, 2, 2)
    near_zero = (1.0 - 1e-10) * pair.reshape(6, 6) + 1e-10 * random_density(rng, 6)
    cases.append(("D eigenvalue near 0", near_zero, (2, 3), c2_A, None))
    return cases


def _bloch(rho, dims, x):
    # (r, xi) of rho_A = (1 + r.sigma)/2 and X = xi.(1, sigma).
    basis = mepovm._hermitian_basis(2)
    return 2.0 * mepovm._coords(qmat.partial_trace(rho, dims, keep=0), basis)[1:], \
        mepovm._coords(x, basis)


def _face(rho, dims):
    # The face of the feasible set that holds the X of c2_A: "seam" or "cap".
    r, xi = _bloch(rho, dims, c2_A(rho, dims, restarts=3, seed=5).x)
    return "seam" if abs(r @ xi[1:]) <= 1e-12 * np.linalg.norm(r) else "cap"


def _assert_feasible(r, xi):
    # X = xi.(1, sigma) has -1 <= X <= 1 and Tr(rho_A X) = 0.
    x = xi[..., 1:]
    assert np.all(np.linalg.norm(x, axis=-1) + np.abs(x @ r) <= 1.0 + 1e-12)
    np.testing.assert_allclose(xi[..., 0] + x @ r, 0.0, atol=1e-12)


def test_qubit_side_cases_are_as_labelled():
    # The fragile regimes that `_qubit_side_cases` adds survive the construction.
    for label, rho, dims, _, _ in _qubit_side_cases():
        if label.endswith("optimum"):
            assert _face(rho, dims) == label.split()[0]
            if label.startswith("cap"):
                r, xi = _bloch(rho, dims, c2_A(rho, dims, restarts=3, seed=5).x)
                assert abs(r @ xi[1:]) > 1e-3
        elif label == "D eigenvalue near 0":
            res = c2_A(rho, dims, restarts=3, seed=5)
            vals = np.linalg.eigvalsh(mepovm._steered_difference(rho.reshape(2, 3, 2, 3), res.x))
            assert np.min(np.abs(vals)) < 1e-9


def _match_per_start_reference(rho, dims, measure, x0):
    # Same value to 1e-12 and the same winning round as the per-start matrix
    # rounds of `seesaw_reference_starts`. Where starts reach one optimum to
    # within rounding (every start does near a pure rho_A), rounding may move
    # a value across the tie that picks the first of them, so any may win.
    res = measure(rho, dims, restarts=3, seed=5, x0=x0)
    d_a, d_b = dims
    if measure is c2_B:
        rho = rho.reshape(d_a, d_b, d_a, d_b).transpose(1, 0, 3, 2).reshape(rho.shape)
        d_a, d_b = d_b, d_a
    starts = seesaw_reference_starts(rho, d_a, d_b, 3, 5, x0)
    best = max(value for value, _ in starts)
    assert abs(res.value - best) <= 1e-12
    assert res.iterations in {it for value, it in starts if value >= best - 1e-15}


@pytest.mark.parametrize("dims", [(3, 2), (6, 2), (3, 3)])
def test_eigenbasis_start_alone_on_a_wide_side(dims):
    # restarts=0 leaves the eigenbasis start alone: the X step then meets an
    # empty stack of random starts, which must keep its (0, d, d) shape.
    rng = np.random.default_rng([40, *dims])
    for _ in range(3):
        rho = random_density(rng, prod(dims))
        res = c2_A(rho, dims, restarts=0)
        [(value, iterations)] = seesaw_reference_starts(rho, *dims, 0)
        assert res.value == pytest.approx(value, rel=0, abs=1e-15)
        assert res.iterations == iterations


@pytest.mark.parametrize("d", [3, 6])
def test_matrix_of_a_stack_is_that_of_each_row(d):
    # Row by row, so that a start's rounds on a wide side do not depend on the
    # other starts in the stack: a stacked product rounds differently.
    rng = np.random.default_rng(d)
    basis = mepovm._hermitian_basis(d)
    for size in range(2, 18):
        xi = rng.normal(size=(size, d * d))
        for row, m in zip(xi, mepovm._matrix(xi, basis)):
            assert np.array_equal(mepovm._matrix(row, basis), m)


def test_eigenbasis_start_ends_alike_alone_and_stacked():
    # Where the eigenbasis start wins the restarts=3 stack, the result is that
    # start's, bit for bit as it ends when run alone.
    wins = 0
    for dims in [(3, 2), (6, 2), (3, 3)]:
        rng = np.random.default_rng([11, *dims])
        for _ in range(10):
            rho = random_density(rng, prod(dims))
            alone, stacked = c2_A(rho, dims, restarts=0), c2_A(rho, dims, restarts=3)
            if alone.value >= (1.0 - mepovm.SEESAW_TIE_RTOL) * stacked.value:
                wins += 1
                assert (stacked.value, stacked.iterations) == (alone.value, alone.iterations)
    assert wins >= 4


@pytest.mark.parametrize("label,rho,dims,measure,x0", _qubit_side_cases())
def test_qubit_side_rounds_match_per_start_reference(monkeypatch, label, rho, dims, measure, x0):
    # The qubit X step is the same closed form in both, and it never takes the
    # multiplier search, also not on the product's rows with c = 0. Every Newton
    # candidate, and the result, is a feasible X.
    pencil, calls = mepovm._pencil_x, []
    monkeypatch.setattr(mepovm, "_pencil_x", lambda *a: calls.append(a) or pencil(*a))
    newton, candidates = mepovm._qubit_newton, []

    def recorded(e, b):
        propose = newton(e, b)

        def wrapped(*args):
            rows, xi = propose(*args)
            candidates.append((np.array([0.0, 0.0, e]), xi))  # rho_A's Bloch vector
            return rows, xi

        return wrapped

    monkeypatch.setattr(mepovm, "_qubit_newton", recorded)
    _match_per_start_reference(rho, dims, measure, x0)
    assert not calls
    for r, xi in candidates:
        _assert_feasible(r, xi)
    if measure is c2_A:
        _assert_feasible(*_bloch(rho, dims, c2_A(rho, dims, restarts=3, seed=5, x0=x0).x))


def test_qubit_side_never_below_the_plain_seesaw():
    # The Newton candidate only adds to a round: no start ends below the plain
    # see-saw's best, here on random states and their B sides.
    rng = np.random.default_rng(53)
    for k in range(24):
        d_b = (2, 3, 6)[k % 3]
        rho = random_density(rng, 2 * d_b)
        plain = max(value for value, _ in plain_seesaw_starts(rho, 2, d_b, 3, k))
        assert c2_A(rho, (2, d_b), restarts=3, seed=k).value >= plain - 1e-12
        if d_b == 2:
            swapped = rho.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
            plain = max(value for value, _ in plain_seesaw_starts(swapped, 2, 2, 3, k))
            assert c2_B(rho, (2, 2), restarts=3, seed=k).value >= plain - 1e-12


def test_a_losing_newton_candidate_costs_nothing(monkeypatch):
    # Each start keeps the larger of its two candidates: with Newton
    # candidates X = 0, whose value is 0, the rounds are the plain see-saw's.
    def zero_candidates(e, b):
        return lambda x, coef, vals, vecs: (list(range(len(x))), np.zeros((len(x), 4)))

    monkeypatch.setattr(mepovm, "_qubit_newton", zero_candidates)
    rng = np.random.default_rng(54)
    for k in range(6):
        d_b = (2, 3, 6)[k % 3]
        rho = random_density(rng, 2 * d_b)
        res = c2_A(rho, (2, d_b), restarts=3, seed=k)
        starts = plain_seesaw_starts(rho, 2, d_b, 3, k)
        best = max(value for value, _ in starts)
        assert abs(res.value - best) <= 1e-12
        assert res.iterations in {it for value, it in starts if value >= best - 1e-15}


def test_newton_candidates_halve_the_optimize_rounds(monkeypatch):
    # Round-count guard on the optimize benchmark's four generic states: the
    # plain see-saw takes 13, 7, 49 and 27 rounds after the start projection,
    # 96 in all; the two-candidate rounds must take at most 60% of that.
    rng = np.random.default_rng(24)
    states = [(random_density(rng, 2 * d_b), (2, d_b)) for d_b in (2, 2, 6, 6)]
    sign_split, calls = mepovm._sign_split, []
    monkeypatch.setattr(mepovm, "_sign_split", lambda h: calls.append(len(h)) or sign_split(h))
    rounds = []
    for rho, dims in states:
        calls.clear()
        c2_A(rho, dims, restarts=3, seed=0)
        rounds.append(len(calls) - 1)  # the first split projects the restarts
    assert sum(rounds) <= 58, rounds


def _with_marginal(rng, rho_a, d_b):
    """A random state on A (x) B, entangled, whose A marginal is rho_a:
    (T (x) 1) sigma (T (x) 1)^dag with T = rho_a^(1/2) sigma_A^(-1/2)."""
    d_a = len(rho_a)
    sigma = random_density(rng, d_a * d_b)
    vals, vecs = np.linalg.eigh(qmat.partial_trace(sigma, (d_a, d_b), keep=0))
    r_vals, r_vecs = np.linalg.eigh(rho_a)
    t = (r_vecs * np.sqrt(np.maximum(r_vals, 0.0))) @ r_vecs.conj().T \
        @ (vecs / np.sqrt(vals)) @ vecs.conj().T
    t = np.kron(t, np.eye(d_b))
    rho = t @ sigma @ t.conj().T
    return (rho + rho.conj().T) / 2.0 / np.real(np.trace(rho))


def _wide_side_cases():
    """(label, rho, dims, x0) with a measured side of dimension 3 or 6, in the
    regimes where the coordinate rounds of `_pencil_x` are most fragile."""
    rng = np.random.default_rng(51)
    cases = []
    for d_a, d_b in ((3, 2), (3, 3), (6, 2)):
        # Singular rho_A: the multiplier bracket is found by doubling.
        rank = 2 if d_a == 3 else 4
        rho = _with_marginal(rng, random_density(rng, d_a, rank=rank), d_b)
        cases.append((f"rank {rank} of {d_a}", rho, (d_a, d_b), None))
        # Two eigenvalues of rho_A 1e-12 apart.
        u = random_unitary(rng, d_a)
        spectrum = rng.uniform(0.2, 1.0, d_a)
        spectrum[1] = spectrum[0]
        spectrum /= spectrum.sum()
        spectrum[1:] += (1e-12, *[0.0] * (d_a - 3), -1e-12)  # the trace stays 1
        rho_a = (u * spectrum) @ u.conj().T
        rho = _with_marginal(rng, rho_a, d_b)
        cases.append(("eigenvalues 1e-12 apart", rho, (d_a, d_b), None))
        # Warm start from the optimum of a nearby state.
        generic = random_density(rng, d_a * d_b)
        x0 = c2_A(0.99 * generic + 0.01 * random_density(rng, d_a * d_b), (d_a, d_b),
                  restarts=1).x
        cases.append(("warm start", generic, (d_a, d_b), x0))
    return cases


@pytest.mark.parametrize("label,rho,dims,x0", _wide_side_cases())
def test_wide_side_rounds_match_per_start_reference(label, rho, dims, x0):
    # The coordinate rounds against `_pencil_x` on the matrices themselves.
    _match_per_start_reference(rho, dims, c2_A, x0)


def test_wide_side_marginals_are_as_built():
    # The fragile regimes of `_wide_side_cases` survive the construction.
    for label, rho, (d_a, d_b), _ in _wide_side_cases():
        eig = np.linalg.eigvalsh(qmat.partial_trace(rho, (d_a, d_b), keep=0))
        if label.startswith("rank"):
            assert np.sum(eig > 1e-12) == int(label.split()[1]) < d_a
        elif label.startswith("eigenvalues"):
            assert np.min(np.abs(np.diff(eig) - 1e-12)) <= 1e-14


@pytest.mark.parametrize("d", range(2, 7))
def test_hermitian_basis(d):
    basis = mepovm._hermitian_basis(d)
    assert basis.shape == (d * d, d, d)
    assert np.array_equal(basis, basis.conj().transpose(0, 2, 1))
    gram = np.einsum("ijk,lkj->il", basis, basis)
    np.testing.assert_allclose(gram, 2.0 * np.eye(d * d), atol=1e-14)
    if d == 2:
        assert np.array_equal(basis, qmat.PAULIS)


def test_restarts_never_start_from_y_plus_minus_one(monkeypatch):
    # A definite restart Hermitian gives Y = +-1, so M = +-rho_A and every
    # feasible X is optimal: rounding noise, not the seed, picks the start.
    # Index 60 of these near-product and generic states is a (2, 2) state whose
    # seed-60 normal draw holds definite Hermitians until their trace is removed.
    rng = np.random.default_rng(3)
    for k in range(61):
        d_a, d_b = ((2, 2), (2, 3), (2, 6))[k % 3]
        rho = random_density(rng, d_a * d_b)
        if k % 5 == 0:
            rho = 0.999 * np.kron(random_density(rng, d_a), random_density(rng, d_b)) + 0.001 * rho
    sign_split, ys = mepovm._sign_split, []

    def recorded(h):
        vals, vecs, y = sign_split(h)
        ys.append(y)
        return vals, vecs, y

    monkeypatch.setattr(mepovm, "_sign_split", recorded)
    for seed in [60, *range(40)]:
        ys.clear()
        c2_A(rho, (2, 2), restarts=5, seed=seed)
        # The first split projects the five restart Hermitians. Y = +-1 has
        # |Tr Y| = 2; the sign of a traceless draw has Tr Y = 0.
        assert ys[0].shape == (5, 2, 2)
        np.testing.assert_allclose(np.trace(ys[0], axis1=1, axis2=2), 0.0, atol=1e-12)


def test_more_restarts_never_lose():
    # The starts for fewer restarts are a prefix of those for more.
    rng = np.random.default_rng(49)
    for dims in ((2, 2), (2, 3), (2, 6)):
        for _ in range(4):
            rho = random_density(rng, dims[0] * dims[1])
            values = [c2_A(rho, dims, restarts=r, seed=3).value for r in (0, 1, 2, 5, 9)]
            assert values == sorted(values)


@pytest.mark.parametrize("measure", [c2_A, c2_B])
def test_c2_rejects_bad_input_up_front(monkeypatch, measure):
    calls = []
    monkeypatch.setattr(mepovm, "_x_step", lambda *a: calls.append(a))
    with pytest.raises(NotAStateError):  # trace 2
        measure(2 * maximally_entangled(2), (2, 2))
    with pytest.raises(NotAStateError):  # negative eigenvalue
        measure(np.diag([0.7, 0.5, -0.1, -0.1]), (2, 2))
    with pytest.raises(ConfigParseError):
        measure(maximally_entangled(2), (2, 2), restarts=-2)
    with pytest.raises(DimMismatchError):
        measure(maximally_entangled(2), (2, 2), x0=np.eye(3))
    for x0 in (np.full((2, 2), np.nan), np.array([[1.0, 1.0], [0.0, 1.0]])):
        with pytest.raises(NonHermitianError):
            measure(maximally_entangled(2), (2, 2), x0=x0)
    assert not calls


@pytest.mark.parametrize("measure", [c2_A, c2_B])
@pytest.mark.parametrize("bad", [{"restarts": 2.5}, {"restarts": True}, {"seed": -1},
                                 {"seed": 1.5}], ids=str)
def test_c2_rejects_non_integer_restarts_and_seeds(monkeypatch, measure, bad):
    # Rejected before a restart is drawn; numpy integers are integers.
    calls, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: calls.append(a) or default_rng(*a))
    with pytest.raises(ConfigParseError):
        measure(maximally_entangled(2), (2, 2), **bad)
    assert not calls
    monkeypatch.undo()
    res = measure(maximally_entangled(2), (2, 2), restarts=np.int64(1), seed=np.uint8(3))
    assert res.value == pytest.approx(0.5, abs=1e-12)


def _with_spectral_gaps(rng, d_a, d_b, gap):
    """A random state on A (x) B whose two marginals have eigenvalues at least
    `gap` apart, so that their eigenbases are well defined."""
    while True:
        rho = random_density(rng, d_a * d_b)
        if all(np.min(np.diff(np.linalg.eigvalsh(qmat.partial_trace(rho, (d_a, d_b), keep=k))))
               >= gap for k in (0, 1)):
            return rho


@pytest.mark.parametrize("dims", [(2, 2), (2, 6), (3, 2), (6, 2)])
def test_c2_is_invariant_under_a_unitary_on_the_measured_side(dims):
    # The rounds run in the eigenbasis of the measured marginal, which a local
    # unitary U rotates along: C and its X rotate with U, the value stays.
    d_a, d_b = dims
    rng = np.random.default_rng(55)
    for _ in range(4):
        rho = _with_spectral_gaps(rng, d_a, d_b, 1e-3)
        for measure, u in ((c2_A, np.kron(random_unitary(rng, d_a), np.eye(d_b))),
                           (c2_B, np.kron(np.eye(d_a), random_unitary(rng, d_b)))):
            rotated = u @ rho @ u.conj().T
            res = measure(rotated, dims, restarts=3, seed=2)
            assert res.value == pytest.approx(measure(rho, dims, restarts=3, seed=2).value,
                                              abs=1e-12)
            # The returned X reaches the value on the rotated state.
            rho4 = rotated.reshape(d_a, d_b, d_a, d_b)
            if measure is c2_B:
                rho4 = rho4.transpose(1, 0, 3, 2)  # the measured side first
            vals = np.linalg.eigvalsh(mepovm._steered_difference(rho4, res.x))
            assert 0.5 * np.sum(np.abs(vals)) == pytest.approx(res.value, abs=1e-12)
            assert abs(np.trace(np.einsum("aibi->ab", rho4) @ res.x)) <= 1e-12


@pytest.mark.parametrize("d_b", [2, 3, 6])
def test_c2_a_decomposes_a_qubit_marginal_once(monkeypatch, d_b):
    # One eigendecomposition of rho_A serves the eigenbasis start, the X step
    # and the Newton candidates.
    calls = []
    for name in ("eigh", "eigvalsh"):
        f = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, f=f: calls.append(np.shape(a) == (2, 2)) or f(a))
    rho = random_density(np.random.default_rng(56), 2 * d_b)
    c2_A(rho, (2, d_b), restarts=3, seed=0)
    assert sum(calls) == 1


def test_warm_start_does_not_hinge_on_rounding():
    # x0 = 1 is infeasible and steers a definite difference rho_B. Unless it
    # is made traceless, its sign is Y = 1, M = rho_A, every feasible X is
    # optimal and rounding picks the warm start: at seed 14 a 1e-13 change of
    # x0 moved the value by 0.018.
    for k in range(15):
        rng = np.random.default_rng(k)
        dims = (2, (2, 3, 6)[k % 3])
        rho = random_density(rng, dims[0] * dims[1])
        nudge = 1e-13 * random_hermitian(rng, 2)
        a, b = (c2_A(rho, dims, restarts=0, x0=np.eye(2) + d) for d in (0.0, nudge))
        assert b.value == pytest.approx(a.value, abs=1e-12)
        assert b.iterations == a.iterations
        np.testing.assert_allclose(b.x, a.x, atol=1e-9)


def test_c2_returned_povm_achieves_value():
    rng = np.random.default_rng(46)
    for dims in ((2, 2), (2, 3)):
        d = dims[0] * dims[1]
        rho = random_density(rng, d)
        res = c2_A(rho, dims, restarts=4, seed=2)
        p1, p2 = povm_of(res, qmat.partial_trace(rho, dims, keep=0)).effects
        rho4 = rho.reshape(dims[0], dims[1], dims[0], dims[1])
        steered = [2.0 * np.einsum("aicj,ca->ij", rho4, eff) for eff in (p1, p2)]
        achieved = 0.25 * np.sum(np.abs(np.linalg.eigvalsh(
            (steered[0] - steered[1] + (steered[0] - steered[1]).conj().T) / 2)))
        assert achieved == pytest.approx(res.value, abs=1e-7)


def test_c2_pure_marginal_diagnostic():
    # sqrt(1 - eps)|00> + sqrt(eps)|11> has C_A = C_B = sqrt(eps (1 - eps)), also
    # where its marginals' small eigenvalue eps is below eigvalsh's resolution.
    for dims in ((2, 2), (3, 2), (6, 2), (2, 6)):
        for eps in 10.0 ** -np.arange(6, 17):
            psi = np.zeros(dims[0] * dims[1])
            psi[0], psi[dims[1] + 1] = np.sqrt(1.0 - eps), np.sqrt(eps)
            rho = np.outer(psi, psi)
            for res in (c2_A(rho, dims, restarts=3), c2_B(rho, dims, restarts=3)):
                assert res.value == pytest.approx(np.sqrt(eps * (1.0 - eps)), rel=1e-14)
    # A product with a pure marginal steers identical states.
    rng = np.random.default_rng(45)
    v = random_pure_vector(rng, 2)
    rho = np.kron(np.outer(v, v.conj()), random_density(rng, 2))
    assert c2_A(rho, (2, 2)).value == pytest.approx(0.0, abs=1e-15)


def test_povm_count_bound():
    assert povm_count_bound(2, 2) == pytest.approx(3.0)
    assert povm_count_bound(2, 6) == pytest.approx(6.0)
    assert povm_count_bound(8, 2) == pytest.approx(8.0)
    assert povm_count_bound(3, 2) == pytest.approx(18.0 / 5.0)
    with pytest.raises(DimMismatchError):
        povm_count_bound(1, 4)


def test_povm_count_bound_rejects_non_integer_dims():
    for dims in ((2.5, 3), (3, 2.5)):
        with pytest.raises(DimMismatchError):
            povm_count_bound(*dims)


def test_povm_validation():
    with pytest.raises(DimMismatchError):
        MePovm2((np.eye(2) * 0.5,), np.eye(2) / 2)
    with pytest.raises(DimMismatchError):
        MePovm2((np.eye(2) / 3, np.eye(2) / 3, np.eye(2) / 3), np.eye(2) / 2)
    with pytest.raises(DimMismatchError):
        MePovm2((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])), np.eye(2) / 2)
    with pytest.raises(DimMismatchError):
        MePovm2((np.eye(2) / 2, np.eye(3) / 2), np.eye(2) / 2)
    with pytest.raises(DimMismatchError):
        MePovm2((np.diag([1.0, 0.0]), np.diag([0.0, 0.9])), np.eye(2) / 2)
    with pytest.raises(DimMismatchError):
        MePovm2((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.diag([0.9, 0.1]))


def test_build_probe_validation():
    probe = build_probe(0.4, 2.0, 3.0, 0.2)  # exp(-1.2) ~ 0.301 > 0.2
    assert isinstance(probe, mepovm.ProbeState)
    with pytest.raises(UnphysicalProbeError):
        build_probe(0.4, 2.0, 3.0, float(np.exp(-1.2)) + 0.01)
    with pytest.raises(NotYetNonMarkovianError):
        build_probe(0.4, 2.0, 1.5, 0.1)
    with pytest.raises(UnphysicalProbeError):
        build_probe(0.4, 0.3, 1.0, 0.1)  # t0 below the physicality threshold


def test_build_probe_rejects_a_nan_t0():
    with pytest.raises(UnphysicalProbeError):
        build_probe(0.4, float("nan"), 3.0, 0.2)


def test_build_probe_rejects_a_nan_tau():
    with pytest.raises(NotYetNonMarkovianError):
        build_probe(0.4, 2.0, float("nan"), 0.2)


def probe_pair(probe, t) -> tuple[np.ndarray, np.ndarray]:
    """(rho1_B(t), rho2_B(t)): twice the diagonal blocks of the probe state."""
    m = probe.state_at(t).matrix
    return 2.0 * m[:6, :6], 2.0 * m[6:, 6:]


def test_probe_pair_matches_displayed_forms():
    alpha, t0, tau, p = 0.4, 2.0, 3.0, 0.2
    probe = build_probe(alpha, t0, tau, p)
    # At t = tau the pair reduces to the displayed tau-time states.
    rho1_tau, rho2_tau = probe_pair(probe, tau)
    ref1, ref2 = probe_pair_at_tau(p)
    np.testing.assert_allclose(rho1_tau, ref1, atol=1e-12)
    np.testing.assert_allclose(rho2_tau, ref2, atol=1e-12)
    # The register blocks carry no coherence between them.
    m = probe.state_at(1.0).matrix
    assert not m[:6, 6:].any() and not m[6:, :6].any()
    # At t = 0 the correlated coefficients are boosted by 1/lambda.
    lxy = (np.exp(-tau) * np.cosh(tau - t0) / np.cosh(t0)) ** (alpha / 2)
    lz = np.exp(-alpha * tau)
    rho1_0, _ = probe_pair(probe, 0.0)
    for op, coeff in ((mepovm._XX, p / lxy), (mepovm._YY, -p / lxy), (mepovm._ZZ, p / lz)):
        got = np.real(np.trace(rho1_0 @ op)) / np.real(np.trace(op @ op))
        assert got == pytest.approx(coeff / 4.0, rel=1e-12)
    # Both ends of the trajectory are valid states (DensityState validates).
    for t in (0.0, 1.0, tau, tau + 1.0):
        probe.state_at(t)


def test_probe_stationary_branch():
    probe = build_probe(0.4, 2.0, 3.0, 0.2)
    _, rho2 = probe_pair(probe, 0.0)
    ch = probe.channel
    for t in (0.7, 2.5, 4.0):
        evolved = channels.apply_map(ch.as_affine(t), rho2, (3, 2), subsystem=1)
        np.testing.assert_allclose(evolved, rho2, atol=1e-14)
        _, rho2_t = probe_pair(probe, t)
        np.testing.assert_allclose(rho2_t, rho2, atol=1e-14)


def test_probe_closed_c2_matches_the_dense_trace_norm():
    # An independent check of the Bell-block spectrum behind closed_c2.
    probe = build_probe(0.4, 2.0, 3.0, 0.2)
    for t in np.append(np.arange(0.0, 4.0 + 5e-3, 1e-2), [6.0, 10.0]):
        rho1, rho2 = probe_pair(probe, float(t))
        dense = np.sum(np.abs(np.linalg.eigvalsh(rho1 - rho2))) / 4.0
        assert probe.closed_c2(float(t)) == pytest.approx(dense, abs=1e-15)


def test_probe_closed_c2_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    alpha, t0, tau, p = 0.4, 2.0, 3.0, 0.2
    probe = build_probe(alpha, t0, tau, p)
    grid = np.arange(0.0, 4.0 + 5e-3, 1e-2)  # probe-backflow's default grid
    values = probe.closed_c2(grid)
    ops = [np.real(op[:4, :4]).tolist() for op in (mepovm._XX - mepovm._YY, mepovm._ZZ)]
    with mpmath.workdps(40):
        a, t0_, p_ = mpmath.mpf(alpha), mpmath.mpf(t0), mpmath.mpf(p)

        def lambdas(t):
            return (mpmath.exp(-a * t / 2) * (mpmath.cosh(t - t0_) / mpmath.cosh(t0_)) ** (a / 2),
                    mpmath.exp(-a * t))

        lxy_tau, lz_tau = lambdas(mpmath.mpf(tau))
        for t, value in zip(grid, values):
            lxy, lz = lambdas(mpmath.mpf(float(t)))
            c_xy, c_z = p_ * lxy / lxy_tau, p_ * lz / lz_tau
            # rho1_B - rho2_B on the qutrit's first two levels (x) the qubit; -p/2
            # twice on its third level.
            diff = mpmath.matrix(4, 4)
            for i in range(4):
                diff[i, i] = p_ / 4
                for j in range(4):
                    diff[i, j] += (c_xy * ops[0][i][j] + c_z * ops[1][i][j]) / 4
            norm = mpmath.fsum(abs(w) for w in mpmath.eigsy(diff, eigvals_only=True)) + p_
            assert abs(value - float(norm / 4)) <= 1e-15


def test_probe_backflow_pattern_closed_form():
    # Non-increasing before t0, dipping to p/2 at tau, strictly increasing after.
    probe = build_probe(0.4, 2.0, 3.0, 0.2)
    ts = np.arange(0.0, 4.0 + 1e-9, 1e-2)
    vals = np.array([probe.closed_c2(float(t)) for t in ts])
    early = vals[ts <= 2.0]
    assert np.all(np.diff(early) <= 1e-9)
    late = vals[ts >= 3.0]
    assert np.all(np.diff(late) > 1e-9)
    i_tau = int(np.argmin(np.abs(ts - 3.0)))
    assert vals[i_tau] == pytest.approx(0.1, abs=1e-12)


def test_probe_backflow_optimizer_spot_checks():
    probe = build_probe(0.4, 2.0, 3.0, 0.2)
    for t in (0.0, 1.0, 2.0, 3.0, 3.5, 4.0):
        res = c2_A(probe.state_at(t), cut=1, restarts=4)
        assert res.value == pytest.approx(probe.closed_c2(t), abs=1e-7)


def test_weak_correlation_probe_still_detects():
    # The probe works arbitrarily close to a product state.
    probe = build_probe(0.4, 2.0, 3.0, 1e-3)
    v_tau = probe.closed_c2(3.0)
    v_after = probe.closed_c2(3.5)
    assert v_tau == pytest.approx(5e-4, abs=1e-12)
    assert v_after > v_tau + 1e-9
    res = c2_A(probe.state_at(3.0), cut=1, restarts=4)
    assert res.value == pytest.approx(v_tau, abs=1e-7)


def test_probe_closed_c2_computes_tau_once(monkeypatch):
    calls = []
    for cls in (channels.ConstantRate, channels.QuasiEternalZRate):
        monkeypatch.setattr(cls, "integral", lambda self, t1, t2, f=cls.integral:
                            calls.append(t2) or f(self, t1, t2))
    probe = build_probe(0.4, 2.0, 3.0, 0.2)
    grid = np.arange(0.0, 4.0 + 5e-3, 1e-2)  # probe-backflow's default grid
    for t in grid:
        probe.closed_c2(float(t))
    # Three rate integrals per point, and three once for the factors at tau.
    assert grid.size == 401 and len(calls) == 3 * (grid.size + 1)


def test_probe_closed_c2_over_a_grid_matches_pointwise_calls():
    probe = build_probe(0.4, 2.0, 3.0, 0.2)
    grid = np.arange(0.0, 4.0 + 5e-3, 1e-2)
    values = probe.closed_c2(grid)
    assert values.shape == grid.shape
    assert np.array_equal(values, [probe.closed_c2(float(t)) for t in grid])


def test_probe_closed_c2_takes_the_square_roots_of_the_map_lambdas():
    # lambda_xy and lambda_z of the probe are the square roots of the map's
    # lambdas, bit for bit: the raw factors of V_{t,0} = Lambda_t through the
    # Bell-block spectrum give the same values.
    alpha, t0, tau, p = 0.4, 2.0, 3.0, 0.2
    grid = np.arange(0.0, 4.0 + 5e-3, 1e-2)  # probe-backflow's default grid
    ch = channels.quasi_eternal(alpha, t0)
    lxy, _, lz = np.sqrt(ch.intermediate(0.0, grid).lambdas)
    lxy_tau, _, lz_tau = np.sqrt(ch.intermediate(0.0, tau).lambdas)
    c_xy, c_z = p * lxy / lxy_tau, p * lz / lz_tau
    expected = ((abs(p + c_z + 2.0 * c_xy) + abs(p + c_z - 2.0 * c_xy)
                 + 2.0 * abs(p - c_z)) / 4.0 + p) / 4.0
    np.testing.assert_array_equal(build_probe(alpha, t0, tau, p).closed_c2(grid), expected)


def test_probe_closed_c2_over_a_grid_integrates_once(monkeypatch):
    calls = []
    for cls in (channels.ConstantRate, channels.QuasiEternalZRate):
        monkeypatch.setattr(cls, "integral", lambda self, t1, t2, f=cls.integral:
                            calls.append(t2) or f(self, t1, t2))
    probe = build_probe(0.4, 2.0, 3.0, 0.2)
    probe.closed_c2(np.arange(0.0, 4.0 + 5e-3, 1e-2))
    # Three rate integrals for the whole grid, and three for the factors at tau.
    assert len(calls) == 6
