"""Reference computations for the benchmark's checks, written with numpy alone.

Nothing here imports nmflow: every value is derived from a closed form or a
dense brute-force evaluation, so a check compares nmflow against an
independent computation rather than against a stored copy of its own output.
"""

from __future__ import annotations

import math

import numpy as np

PAULI = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

# Paper landmarks and the tolerances they are stated with.
PHYSICALITY_TARGET = (0.7686, 1e-3)
T_EB_WINDOW = (1.46, 1.48)
MI_ONSET_TARGET = (2.741, 5e-3)
MIN_ONSET_BOUND_2000 = 2.55
GADC_NON_CP_WINDOW = (0.13437, 0.31416)
GADC_NESTING_TOL = 5e-4
PROBE_TARGET_TOL = 1e-7
HESSIAN_TOL = 1e-3
POVM_BOUND_22 = 3.0
PG_VALUES = (0.65, 0.725)
ETERNAL_MAX_RISE = 1e-9


def haar_vectors(count: int, seed: int, dim: int = 4) -> np.ndarray:
    """Haar pure states as normalized complex Gaussian rows (the draw order
    real block first, then imaginary block)."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank mixed state G G^dag / Tr from a complex Ginibre matrix."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def entropy(vals: np.ndarray, floor: float = 1e-14) -> np.ndarray:
    """-sum x log x over the last axis, eigenvalues at or below floor dropped."""
    safe = np.where(vals > floor, vals, 1.0)
    return -np.sum(np.where(vals > floor, vals * np.log(safe), 0.0), axis=-1)


# ---------------------------------------------------------------------------
# Quasi-eternal family in closed form
# ---------------------------------------------------------------------------

def _log_cosh(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def quasi_eternal_weights(alpha: float, t0: float, ts) -> np.ndarray:
    """Mixing weights (p_0, p_x, p_y, p_z)(t) of the random-unitary form for
    rates (alpha/2)(1, 1, -tanh(t - t0)), from the closed-form integrals."""
    ts = np.asarray(ts, dtype=float)
    gxy = 0.5 * alpha * ts
    gz = 0.5 * alpha * (_log_cosh(-t0) - _log_cosh(ts - t0))
    a_xy = np.exp(-2.0 * (gxy + gxy))
    a_xz = np.exp(-2.0 * (gxy + gz))
    a_yz = a_xz
    return 0.25 * np.stack([1 + a_xy + a_xz + a_yz, 1 - a_xy - a_xz + a_yz,
                            1 - a_xy + a_xz - a_yz, 1 + a_xy - a_xz - a_yz], axis=-1)


def mi_series(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """I(t) of pure two-qubit states under rho -> sum_k p_k (1 x s_k) rho (1 x s_k).

    vectors (N, 4), weights (T, 4); returns (T, N).
    """
    rho0 = np.einsum("na,nb->nab", vectors, vectors.conj())
    ops = np.stack([np.kron(PAULI[0], s) for s in PAULI])
    conj = np.einsum("kab,nbc,kdc->knad", ops, rho0, ops.conj())
    rho_t = np.einsum("tk,knad->tnad", weights.astype(complex), conj)
    joint = entropy(np.linalg.eigvalsh(rho_t))
    psi = vectors.reshape(-1, 2, 2)
    rho_a = np.einsum("nas,nbs->nab", psi, psi.conj())
    s_a = entropy(np.linalg.eigvalsh(rho_a))
    rho_s = np.einsum("nas,nat->nst", psi, psi.conj())
    rho_s_t = np.einsum("tk,kab,nbc,kdc->tnad", weights.astype(complex), PAULI, rho_s,
                        PAULI.conj())
    s_s = entropy(np.linalg.eigvalsh(rho_s_t))
    return s_a[None, :] + s_s - joint


def onset_index_bounds(series: np.ndarray, margin: float, slack: float):
    """Per column, the first index whose forward difference exceeds
    margin - slack (earliest admissible) and margin + slack (latest admissible);
    -1 where there is none. A scan that rounds differently near the margin
    may report any index between the two."""
    diffs = np.diff(series, axis=0)
    out = []
    for thr in (margin - slack, margin + slack):
        rising = diffs > thr
        first = rising.argmax(axis=0)
        first[~rising.any(axis=0)] = -1
        out.append(first)
    return out[0], out[1]


def bisect(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    flo = f(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def t_eb_root(alpha: float, t0: float) -> float:
    """First time the evolved maximally entangled pair, which stays Bell
    diagonal, becomes separable: max_k p_k(t) = 1/2."""
    def excess(t: float) -> float:
        return float(np.max(quasi_eternal_weights(alpha, t0, [t])[0])) - 0.5

    step = 1e-3
    t = 0.0
    while excess(t + step) > 0:
        t += step
    return bisect(excess, t, t + step)


def physicality_threshold(alpha: float) -> float:
    return 0.5 * math.log(2.0 ** (1.0 / alpha) - 1.0)


# ---------------------------------------------------------------------------
# Qubit maps and positivity
# ---------------------------------------------------------------------------

def gadc_affine(t: float) -> tuple[np.ndarray, np.ndarray]:
    """Pauli factors and Bloch shift of the GADC with s = cos^2 5t, r = e^-t."""
    s, r = math.cos(5.0 * t) ** 2, math.exp(-t)
    return (np.array([math.sqrt(r), math.sqrt(r), r]),
            np.array([0.0, 0.0, (2.0 * s - 1.0) * (1.0 - r)]))


def gadc_intermediate(t: float, s: float) -> tuple[np.ndarray, np.ndarray]:
    """V(t, s) = Lambda_s o Lambda_t^-1 as (lambdas, translation)."""
    lam_t, w_t = gadc_affine(t)
    lam_s, w_s = gadc_affine(s)
    lam = lam_s / lam_t
    return lam, w_s - lam * w_t


def bloch_max_norm(lam: np.ndarray, w: np.ndarray, n_theta: int = 20001,
                   n_phi: int = 16) -> float:
    """max ||diag(lam) n + w|| over a dense (theta, phi) grid of unit vectors,
    evaluated in slices so the check adds little to the run's peak memory."""
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)[None, :]
    best = 0.0
    for theta in np.array_split(np.linspace(0.0, math.pi, n_theta), 20):
        theta = theta[:, None]
        n = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                      np.cos(theta) * np.ones_like(phi)], axis=-1)
        best = max(best, float(np.max(np.linalg.norm(n * lam + w, axis=-1))))
    return best


def amp_damp_gamma(t: float) -> float:
    """-(2/G) dG/dt for G(t) = exp(-t/2)(1 + 0.4 sin 4t)."""
    return 1.0 - 3.2 * math.cos(4.0 * t) / (1.0 + 0.4 * math.sin(4.0 * t))


def sign_changes(f, t_max: float, step: float) -> list[float]:
    roots = []
    t, f_prev = 0.0, f(0.0)
    while t < t_max:
        t_next = min(t + step, t_max)
        f_next = f(t_next)
        if f_prev * f_next < 0:
            roots.append(bisect(f, t, t_next))
        t, f_prev = t_next, f_next
    return roots


# ---------------------------------------------------------------------------
# Steered distinguishability
# ---------------------------------------------------------------------------

def trace_norm(m: np.ndarray) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh((m + m.conj().T) / 2.0))))


def steered_value(rho: np.ndarray, d_a: int, d_b: int, x: np.ndarray) -> float:
    """||Tr_A[rho (X x 1)]||_1 / 2."""
    r4 = rho.reshape(d_a, d_b, d_a, d_b)
    return 0.5 * trace_norm(np.einsum("aicj,ca->ij", r4, x))


def marginal_a(rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    return np.einsum("aibi->ab", rho.reshape(d_a, d_b, d_a, d_b))


def eigenbasis_me_x(rho_a: np.ndarray) -> np.ndarray:
    """A feasible ME-POVM observable X: +1 on the top eigenvectors of rho_A up to
    weight 1/2, the crossing eigenvector split, -1 on the rest."""
    vals, vecs = np.linalg.eigh(rho_a)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    x = -np.ones(vals.size)
    acc = 0.0
    for k, v in enumerate(vals):
        if acc + v <= 0.5:
            x[k], acc = 1.0, acc + v
        else:
            x[k] = (0.5 - acc) / v * 2.0 - 1.0
            break
    return (vecs * x) @ vecs.conj().T


def povm_count_bound(d_a: int, d_b: int, n: int = 200001) -> float:
    z = np.linspace(0.5, 1.0, n)
    return float(np.min(np.maximum(d_a / z, d_b * (3.0 * z - 1.0) / z)))
