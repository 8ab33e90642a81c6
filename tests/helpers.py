"""Shared helpers for the test suite: random matrices, states, and channels."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Sequence

import numpy as np

from nmflow import correlations, mepovm, qmat
from nmflow.channels import KrausChannel, _bell_weights, choi
from nmflow.errors import DimMismatchError, NonCommutingError, NonHermitianError, NotAStateError
from nmflow.qmat import PAULIS


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


def divisibility_rates(gx, gy, gz) -> dict:
    """Pointwise divisibility of a Pauli generator from its three rates: CP
    needs every rate nonnegative, P every pairwise sum (so cp implies p).
    Elementwise over arrays of rates."""
    cp = (gx >= 0.0) & (gy >= 0.0) & (gz >= 0.0)
    p = (gx + gy >= 0.0) & (gy + gz >= 0.0) & (gz + gx >= 0.0)
    return {"cp": cp, "p": p}


def bell_weights(channel, t) -> tuple:
    """Mixing weights (p_0, p_x, p_y, p_z) of a unital Pauli family's map at t,
    from the lambdas of as_affine(t), which raises where a weight is negative."""
    return _bell_weights(1.0, *channel.as_affine(t).lambdas)


def dense_min_choi_eig(qmap):
    """Smallest Choi eigenvalue of a qubit map from a dense eigvalsh of choi(qmap, 2):
    the reference for divisibility.min_choi_eig's closed form."""
    return np.linalg.eigvalsh(choi(qmap, 2))[..., 0][()]


def trace_distance(rho, sigma) -> float:
    """D(rho, sigma) = ||rho - sigma||_1 / 2."""
    a, b = np.asarray(rho, dtype=complex), np.asarray(sigma, dtype=complex)
    if a.shape != b.shape:
        raise DimMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def common_eigenbasis(mats: Sequence[np.ndarray], tol: float) -> np.ndarray:
    """A unitary whose columns diagonalize every Hermitian matrix of `mats` to
    within max(tol, 1e-8) off the diagonal: the eigenbasis of a random
    combination, tried four times from a fixed seed."""
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


def guessing_certificate(ens: correlations.Ensemble) -> np.ndarray:
    """The dual certificate K of the guessing probability of a commuting
    ensemble: diagonal in the common eigenbasis, with the entries
    max_i p_i lambda_ij, so that K >= p_i rho_i for every i and Tr K = P_g."""
    u = common_eigenbasis(ens.states, correlations.COMM_TOL)
    lam = np.stack([np.real(np.diag(u.conj().T @ s @ u)) for s in ens.states])
    col_max = np.max(np.asarray(ens.probs)[:, None] * lam, axis=0)
    return (u * col_max) @ u.conj().T


def back_operator(rho4: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Tr_B[rho (1 (x) Y)] for rho reshaped to (dA, dB, dA, dB), for one Y or a stack."""
    return np.einsum("aibk,...ki->...ab", rho4, y)


def solve_x(m: np.ndarray, rho_a: np.ndarray) -> np.ndarray:
    """The X step of `mepovm.c2_A` on matrices: maximize Tr(X m) over Hermitian
    -1 <= X <= 1 with Tr(rho_a X) = 0, for one m or for each m of an
    (S, d, d) stack, by `solve_x_diagonal` in the eigenbasis of rho_a."""
    lam, v, _ = mepovm._eigen_split(rho_a)
    return v @ solve_x_diagonal(v.conj().T @ m @ v, lam) @ v.conj().T


def solve_x_diagonal(m: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """`solve_x` for rho_a = diag(lam), lam descending, as in the rounds of
    `mepovm.c2_A`: for d = 2 it takes the closed form in Pauli coordinates;
    other dimensions run `mepovm._pencil_x` on each matrix as it is."""
    m = (m + m.conj().swapaxes(-1, -2)) / 2.0
    stack = m.reshape((-1,) + m.shape[-2:])
    if len(lam) == 2:
        basis = mepovm._hermitian_basis(2)
        xi = mepovm._x_step(lam, basis)(mepovm._coords(stack, basis))
        return mepovm._matrix(xi, basis).reshape(m.shape)
    return np.array([mepovm._pencil_x(mk, lam) for mk in stack]).reshape(m.shape)


def seesaw_reference(rho: np.ndarray, d_a: int, d_b: int, restarts: int, seed: int = 0,
                     x0: np.ndarray | None = None) -> tuple[float, int]:
    """(value, iterations) of C_A by the per-start rounds that `mepovm.c2_A`
    runs for all starts at once: the first start of `seesaw_reference_starts`
    that ties with the largest value wins."""
    starts = seesaw_reference_starts(rho, d_a, d_b, restarts, seed, x0)
    best = max(value for value, _ in starts)
    return next(s for s in starts if s[0] >= (1.0 - mepovm.SEESAW_TIE_RTOL) * best)


def _start_hermitians(rho4: np.ndarray, restarts: int, seed: int,
                      x0: np.ndarray | None) -> list[np.ndarray]:
    """The traceless B-side Hermitians that `mepovm.c2_A` projects to its
    starts after the eigenbasis ME-POVM: the steered difference of the warm
    start `x0`, then `restarts` seeded random ones."""
    d_b = rho4.shape[1]
    hs = [] if x0 is None else [mepovm._steered_difference(rho4, np.asarray(x0, dtype=complex))]
    rng = np.random.default_rng(seed)
    hs += [rng.normal(size=(d_b, d_b)) + 1j * rng.normal(size=(d_b, d_b)) for _ in range(restarts)]
    return [h - np.trace(h).real / d_b * np.eye(d_b) for h in hs]  # so never definite


def _sign(h: np.ndarray):
    # Eigenvalues, eigenvectors and sign operator of the Hermitian part of h.
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    return vals, vecs, (vecs * np.where(vals >= 0.0, 1.0, -1.0)) @ vecs.conj().T


def plain_seesaw_starts(rho: np.ndarray, d_a: int, d_b: int, restarts: int, seed: int = 0,
                        x0: np.ndarray | None = None) -> list[tuple[float, int]]:
    """(value, iterations) of each start of the plain see-saw, each run on its
    own on matrices: every round evaluates one X, then takes the sign Y of its
    steered difference and the X step on M = Tr_B[rho (1 (x) Y)]."""
    rho4 = np.asarray(rho, dtype=complex).reshape(d_a, d_b, d_a, d_b)
    rho_a = np.einsum("aibi->ab", rho4)
    app_f = mepovm.construct_me_povm(rho_a)
    starts = [app_f.effects[0] - app_f.effects[1]]
    starts += [solve_x(back_operator(rho4, _sign(h)[2]), rho_a)
               for h in _start_hermitians(rho4, restarts, seed, x0)]
    results = []
    for x in starts:
        value = -np.inf
        for it in range(1, mepovm.SEESAW_MAX_ITER + 1):
            vals, _, y = _sign(mepovm._steered_difference(rho4, x))
            new_value = 0.5 * float(np.sum(np.abs(vals)))
            if new_value <= value + mepovm.SEESAW_GAIN_TOL:
                value = max(value, new_value)
                break
            value = new_value
            x = solve_x(back_operator(rho4, y), rho_a)
        results.append((value, it))
    return results


def seesaw_reference_starts(rho: np.ndarray, d_a: int, d_b: int, restarts: int, seed: int = 0,
                            x0: np.ndarray | None = None) -> list[tuple[float, int]]:
    """(value, iterations) of each start of `mepovm.c2_A`, each run on its own
    on matrices in the eigenbasis of rho_A. Every round evaluates the start's
    candidates one matrix at a time and keeps the first largest; the next
    candidates are the X step on M = Tr_B[rho (1 (x) Y)] and, on a qubit side,
    the Newton candidate that `mepovm._qubit_newton` proposes for that row
    alone."""
    rho4 = np.asarray(rho, dtype=complex).reshape(d_a, d_b, d_a, d_b)
    lam, v, w = mepovm._eigen_split(np.einsum("aibi->ab", rho4))
    hs = _start_hermitians(rho4, restarts, seed, x0)
    rho4 = np.einsum("ca,cidj,db->aibj", v.conj(), rho4, v)
    starts = [np.diag(2.0 * w - 1.0).astype(complex)]
    starts += [solve_x_diagonal(back_operator(rho4, _sign(h)[2]), lam) for h in hs]
    basis = mepovm._hermitian_basis(d_a)
    newton = None
    if d_a == 2:
        b = mepovm._steered_difference(rho4, basis).reshape(4, d_b * d_b)
        newton = mepovm._qubit_newton(float(lam[0] - lam[1]), b)
    results = []
    for x in starts:
        value, candidates = -np.inf, [x]
        for it in range(1, mepovm.SEESAW_MAX_ITER + 1):
            scored = [(_sign(mepovm._steered_difference(rho4, c)), c) for c in candidates]
            (vals, vecs, y), x = max(scored, key=lambda s: float(np.sum(np.abs(s[0][0]))))
            new_value = 0.5 * float(np.sum(np.abs(vals)))
            if new_value <= value + mepovm.SEESAW_GAIN_TOL:
                value = max(value, new_value)
                break
            value = new_value
            m = back_operator(rho4, y)
            candidates = [solve_x_diagonal(m, lam)]
            if newton is not None:
                _, xi = newton(mepovm._coords(x, basis)[None], mepovm._coords(m, basis)[None],
                               vals[None], vecs[None])
                candidates += list(mepovm._matrix(xi, basis))
        results.append((value, it))
    return results


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


def gadc_kraus(t: float) -> KrausChannel:
    """Kraus operators of `GadcChannel` at time t, the reference for its affine
    form: excitation weight s = cos^2(5t) and G^2 = r = e^-t."""
    s, r = np.square(np.cos(5.0 * t)), np.exp(-t)
    sq_s, sq_1s = np.sqrt(s), np.sqrt(1.0 - s)
    sq_r, sq_1r = np.sqrt(r), np.sqrt(1.0 - r)
    k1 = sq_s * np.array([[1.0, 0.0], [0.0, sq_r]], dtype=complex)
    k2 = sq_s * np.array([[0.0, sq_1r], [0.0, 0.0]], dtype=complex)
    k3 = sq_1s * np.array([[sq_r, 0.0], [0.0, 1.0]], dtype=complex)
    k4 = sq_1s * np.array([[0.0, 0.0], [sq_1r, 0.0]], dtype=complex)
    return KrausChannel((k1, k2, k3, k4))


def gadc_generator_ops() -> tuple[np.ndarray, np.ndarray]:
    """Jump operators of `GadcChannel` paired with (gamma_minus, gamma_plus):
    decay toward |0> and toward |1> respectively."""
    toward0 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    toward1 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    return toward0, toward1


def near_product_rate(qmap) -> np.ndarray:
    """g = Tr[B^dag D^-1 B] with D = Lambda(|0><0|) and B = Lambda(|0><1|), read
    from the superoperator of a qubit map (an array for a map over times).
    The mutual information of sqrt(1 - mu)|00> + sqrt(mu)|11> under
    1 (x) Lambda is mu ln(1/mu) g + O(mu), so as mu -> 0 it rises where g does."""
    k = qmap.superop
    d, b = k[..., 0, 0], k[..., 0, 1]
    return np.real(np.trace(b.conj().swapaxes(-1, -2) @ np.linalg.solve(d, b),
                            axis1=-2, axis2=-1))
