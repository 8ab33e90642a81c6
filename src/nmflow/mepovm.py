"""Maximally-entropic two-outcome measurements and the distinguishability
correlation measures C_A and C_B (two-outcome versions).

C_A(rho_AB) is the best guessing probability, minus 1/2, of the two-state
equiprobable ensemble that a 2-outcome ME-POVM on side A steers on side B.
Writing the POVM as {(1+X)/2, (1-X)/2} with -1 <= X <= 1 and Tr(rho_A X) = 0,

    C_A(rho_AB) = max_X ||Tr_A[rho_AB (X (x) 1)]||_1 / 2,

optimized here by a monotone see-saw with exact subproblem solutions:
given X, the trace norm's sign operator Y is read off an eigendecomposition;
given Y, Tr(X M) with M = Tr_B[rho_AB (1 (x) Y)] is maximized over the X
polytope in the eigenbasis of M - mu rho_A. The multiplier mu of the
maximal-entropy constraint is found exactly: for full-rank rho_A, at a
generalized eigenvalue of the pencil (M, rho_A) where Tr rho_A sign(M - mu rho_A)
jumps across zero, or else by safeguarded Newton steps inside the smooth
segment between two such breakpoints; for singular rho_A, by the same Newton
steps inside a bracket found by doubling.

Also here: the outcome-count bound for ME-POVM optimization, and the
classical-quantum probe state of the quasi-eternal family whose C backflow
is equivalent to non-CP intermediate dynamics.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import prod
from typing import Sequence

import numpy as np

from .channels import quasi_eternal
from .divisibility import physicality_threshold
from .errors import DimMismatchError, NotYetNonMarkovianError, UnphysicalProbeError
from .qmat import (
    DensityState,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _as_matrix,
    herm_eig,
    partial_trace,
    trace_norm,
)

EFFECT_PSD_SLACK = 1e-10
COMPLETENESS_TOL = 1e-10
ME_TOL = 1e-9
SEESAW_GAIN_TOL = 1e-10
SEESAW_MAX_ITER = 400
DEFAULT_RESTARTS = 16
BREAKPOINT_TOL = 1e-12   # relative gap below which pencil eigenvalues form one breakpoint
MU_G_TOL = 1e-14         # |Tr(rho_A X)| that ends the multiplier search
MU_WIDTH_TOL = 1e-13     # bracket width, relative to ||m||_2 + 1, that ends it too
MU_MAX_STEPS = 100


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive effects summing to the identity."""

    effects: tuple[np.ndarray, ...]

    def __init__(self, effects: Sequence[np.ndarray]):
        ops = tuple(np.asarray(e, dtype=complex) for e in effects)
        if not ops:
            raise DimMismatchError("empty POVM")
        d = ops[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for e in ops:
            if e.shape != (d, d):
                raise DimMismatchError("POVM effects differ in dimension")
            if float(np.linalg.eigvalsh((e + e.conj().T) / 2)[0]) < -EFFECT_PSD_SLACK:
                raise DimMismatchError("POVM effect is not positive semidefinite")
            total += e
        if float(np.max(np.abs(total - np.eye(d)))) > COMPLETENESS_TOL:
            raise DimMismatchError("POVM effects do not sum to the identity")
        object.__setattr__(self, "effects", ops)

    @property
    def size(self) -> int:
        return len(self.effects)


@dataclass(frozen=True, eq=False)
class MePovm2:
    """Two-outcome POVM with uniform outcome statistics on a reference state."""

    povm: Povm
    reference: np.ndarray

    def __init__(self, effects: Sequence[np.ndarray], reference):
        povm = Povm(effects)
        if povm.size != 2:
            raise DimMismatchError("MePovm2 needs exactly two effects")
        ref = _as_matrix(reference)
        for e in povm.effects:
            q = float(np.real(np.trace(ref @ e)))
            if abs(q - 0.5) > ME_TOL:
                raise DimMismatchError(f"outcome probability {q} deviates from 1/2")
        object.__setattr__(self, "povm", povm)
        object.__setattr__(self, "reference", ref)

    @property
    def effects(self) -> tuple[np.ndarray, ...]:
        return self.povm.effects


def construct_me_povm(rho_a) -> MePovm2:
    """Two-outcome ME-POVM for any state, diagonal in its eigenbasis.

    With eigenvalues pi_1 >= pi_2 >= ... pick the first index where the
    cumulative weight reaches 1/2 and split that eigenprojector by
    omega = (1/2 - S(i-1)) / pi_i; the construction always succeeds.
    """
    ref = _as_matrix(rho_a)
    vals, vecs = herm_eig(ref)
    cum = np.cumsum(vals)
    i_bar = int(np.searchsorted(cum, 0.5, side="left"))
    i_bar = min(i_bar, len(vals) - 1)
    s_prev = float(cum[i_bar - 1]) if i_bar > 0 else 0.0
    missing = 0.5 - s_prev
    omega = 0.0 if missing <= 0.0 else float(np.clip(missing / vals[i_bar], 0.0, 1.0))
    d = ref.shape[0]
    p1 = np.zeros((d, d), dtype=complex)
    for k in range(i_bar):
        p1 += np.outer(vecs[:, k], vecs[:, k].conj())
    p1 += omega * np.outer(vecs[:, i_bar], vecs[:, i_bar].conj())
    return MePovm2((p1, np.eye(d) - p1), ref)


def c2_closed_probe(rho1, rho2):
    """C of the classical-quantum probe in closed form: ||rho1 - rho2||_1 / 4;
    an array of values for (..., n, n) stacks."""
    a, b = _as_matrix(rho1), _as_matrix(rho2)
    if a.shape != b.shape:
        raise DimMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return trace_norm(a - b) / 4.0


def povm_count_bound(d_a: int, d_b: int) -> float:
    """Sufficient number of ME-POVM outcomes when maximizing over the outcome
    count: min over z in [1/2, 1] of max(d_a/z, d_b(3z-1)/z)."""
    if d_a < 2 or d_b < 2:
        raise DimMismatchError("need d_a, d_b >= 2")
    ratio = d_a / d_b
    if ratio <= 0.5:
        return float(d_b)
    if ratio >= 2.0:
        return float(d_a)
    return 3.0 * d_a * d_b / (d_a + d_b)


# ---------------------------------------------------------------------------
# See-saw optimizer for C_A
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class C2Result:
    value: float
    povm: MePovm2
    x: np.ndarray = field(repr=False)
    iterations: int
    pure_marginal: bool = False


def _steered_difference(rho4: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Tr_A[rho (X (x) 1)] for rho reshaped to (dA, dB, dA, dB).
    return np.einsum("aicj,ca->ij", rho4, x)


def _back_operator(rho4: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Tr_B[rho (1 (x) Y)].
    return np.einsum("aibk,ki->ab", rho4, y)


def _sign_trace(m: np.ndarray, rho_a: np.ndarray, mu: float) -> float:
    vals, vecs = np.linalg.eigh(m - mu * rho_a)
    s = np.where(vals >= 0.0, 1.0, -1.0)
    r = np.real(np.einsum("ik,ij,jk->k", vecs.conj(), rho_a, vecs))
    return float(np.sum(s * r))


def _newton_multiplier(m: np.ndarray, rho_a: np.ndarray, lo: float, hi: float,
                       g_lo: float, g_hi: float,
                       scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of m - mu rho_a at the root mu of
    g(mu) = Tr rho_a sign(m - mu rho_a) in (lo, hi), given g(lo+) = g_lo > 0
    and g(hi-) = g_hi < 0.

    Newton steps use the exact slope
    g'(mu) = -4 sum_{i in +, j in -} |(V^dag rho_a V)_ij|^2 / (lambda_i - lambda_j)
    from the same eigendecomposition; a step that would leave the shrinking
    bracket is replaced by bisection, so jumps of g inside (lo, hi) only slow
    the search down. Where g is steep, the root may not be representable to
    MU_G_TOL, so the evaluation with the smallest |g| is returned.
    """
    mu = lo + (hi - lo) * g_lo / (g_lo - g_hi)
    best_g, best = np.inf, None
    for _ in range(MU_MAX_STEPS):
        vals, vecs = np.linalg.eigh(m - mu * rho_a)
        rv = vecs.conj().T @ rho_a @ vecs
        n = int(np.searchsorted(vals, 0.0))  # sign -1 on vals[:n], +1 on vals[n:]
        r = rv.diagonal().real
        g = float(r[n:].sum() - r[:n].sum())
        if abs(g) < best_g:
            best_g, best = abs(g), (vals, vecs)
        if best_g <= MU_G_TOL:
            break
        if g > 0:
            lo = mu
        else:
            hi = mu
        slope = -4.0 * float((np.abs(rv[n:, :n]) ** 2 / (vals[n:, None] - vals[:n])).sum())
        step = mu - g / slope if slope < 0.0 else np.nan
        if step == mu or hi - lo <= MU_WIDTH_TOL * scale:
            break  # g is resolved as finely as mu can be
        mu = step if lo < step < hi else 0.5 * (lo + hi)
    return best


def _pencil_multiplier(m: np.ndarray, rho_a: np.ndarray, l_inv: np.ndarray,
                       scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of m - mu rho_a at the exact multiplier, for
    positive-definite rho_a with inverse Cholesky factor l_inv.

    g(mu) = Tr rho_a sign(m - mu rho_a) falls from +1 to -1 and jumps only
    at the generalized eigenvalues nu of the pencil (m, rho_a). By Sylvester's
    law of inertia, m - nu rho_a has as many negative eigenvalues as there are
    breakpoints below nu, so one eigendecomposition at nu gives both one-sided
    limits of g. A bisection over the (clustered) breakpoints finds either a
    breakpoint whose jump straddles zero, where mu = nu exactly, or the
    smooth segment between two breakpoints that holds the root.
    """
    nus = np.linalg.eigvalsh(l_inv @ m @ l_inv.conj().T).tolist()
    tol = BREAKPOINT_TOL * (scale + max(-nus[0], nus[-1]))
    starts = [0] + [i for i in range(1, len(nus)) if nus[i] - nus[i - 1] > tol]
    ends = starts[1:] + [len(nus)]
    lo, hi = -1, len(starts)
    while hi - lo > 1:
        k = (lo + hi) // 2
        a, b = starts[k], ends[k]
        nu = 0.5 * (nus[a] + nus[b - 1])
        vals, vecs = np.linalg.eigh(m - nu * rho_a)
        r = np.real(np.einsum("ik,ij,jk->k", vecs.conj(), rho_a, vecs)).tolist()
        below, at, above = sum(r[:a]), sum(r[a:b]), sum(r[b:])
        if above - at - below > 0.0:
            lo, g_lo, nu_lo = k, above - at - below, nu
        elif above + at - below < 0.0:
            hi, g_hi, nu_hi = k, above + at - below, nu
        else:
            return vals, vecs
    # g = +1 below the lowest breakpoint and -1 above the highest, so the
    # root lies strictly between two probed breakpoints.
    return _newton_multiplier(m, rho_a, nu_lo, nu_hi, g_lo, g_hi, scale)


def _whitening(rho_a: np.ndarray, rho_a_min: float) -> np.ndarray | None:
    """Inverse Cholesky factor of rho_a, or None when rho_a is singular
    (smallest eigenvalue rho_a_min at most 1e-12)."""
    return np.linalg.inv(np.linalg.cholesky(rho_a)) if rho_a_min > 1e-12 else None


_WHITEN_HERE = object()


def _solve_x(m: np.ndarray, rho_a: np.ndarray, l_inv=_WHITEN_HERE) -> np.ndarray:
    """Maximize Tr(X m) over Hermitian -1 <= X <= 1 with Tr(rho_a X) = 0.

    The optimum is X = sign(m - mu rho_a) for the multiplier mu that zeroes
    Tr(rho_a X); where g(mu) = Tr rho_a sign(m - mu rho_a) jumps across zero,
    the weight on the kernel eigenvectors is chosen fractionally to meet the
    constraint exactly. l_inv is `_whitening(rho_a, min eigenvalue)`; c2_A
    computes it once per run, and by default it is computed here.
    """
    m = (m + m.conj().T) / 2.0
    scale = float(np.max(np.abs(np.linalg.eigvalsh(m)))) + 1.0  # ||m||_2 + 1
    if l_inv is _WHITEN_HERE:
        l_inv = _whitening(rho_a, float(np.linalg.eigvalsh(rho_a)[0]))
    if l_inv is not None:
        vals, vecs = _pencil_multiplier(m, rho_a, l_inv, scale)
    else:
        lo, hi = -scale, scale
        g_lo, g_hi = _sign_trace(m, rho_a, lo), _sign_trace(m, rho_a, hi)
        for _ in range(80):
            if g_lo > 0:
                break
            lo *= 2.0
            g_lo = _sign_trace(m, rho_a, lo)
        for _ in range(80):
            if g_hi < 0:
                break
            hi *= 2.0
            g_hi = _sign_trace(m, rho_a, hi)
        if g_lo > 0 > g_hi:
            vals, vecs = _newton_multiplier(m, rho_a, lo, hi, g_lo, g_hi, scale)
        else:  # no sign change found; the finish below still meets the constraint
            vals, vecs = np.linalg.eigh(m)

    # In the eigenbasis of m - mu rho_a, sign(vals) maximizes Tr(X m); the
    # constraint's residual is then removed at least cost: weights move away
    # from their sign in order of |val_k| / r_k, a fractional knapsack that is
    # exact for the diagonal problem. At a kink only the kernel weights
    # (val_k ~ 0) move.
    r = np.real(np.einsum("ik,ij,jk->k", vecs.conj(), rho_a, vecs))
    x = np.where(vals >= 0.0, 1.0, -1.0)
    excess = float(x @ r)
    side = np.sign(excess)
    movable = np.flatnonzero((x == side) & (r > 0.0))
    for k in movable[np.argsort(np.abs(vals[movable]) / r[movable])]:
        shift = min(2.0, side * excess / r[k])
        x[k] -= side * shift
        excess -= side * shift * r[k]
        if shift < 2.0:
            break
    return (vecs * x) @ vecs.conj().T


def _seesaw_once(rho4: np.ndarray, rho_a: np.ndarray, x0: np.ndarray,
                 l_inv: np.ndarray | None) -> tuple[float, np.ndarray, int]:
    x = x0
    value = -np.inf
    for it in range(1, SEESAW_MAX_ITER + 1):
        delta = _steered_difference(rho4, x)
        delta = (delta + delta.conj().T) / 2.0
        vals, vecs = np.linalg.eigh(delta)
        new_value = 0.5 * float(np.sum(np.abs(vals)))
        if new_value <= value + SEESAW_GAIN_TOL:
            value = max(value, new_value)
            return value, x, it
        value = new_value
        y = (vecs * np.where(vals >= 0.0, 1.0, -1.0)) @ vecs.conj().T
        x = _solve_x(_back_operator(rho4, y), rho_a, l_inv)
    return value, x, SEESAW_MAX_ITER


def _bipartite(rho, dims, cut):
    m, dims = (rho.matrix, rho.dims) if isinstance(rho, DensityState) else \
        (np.asarray(rho, dtype=complex), tuple(int(d) for d in dims or ()))
    if not dims:
        raise DimMismatchError("dims required")
    if not 0 < cut < len(dims):
        raise DimMismatchError(f"cut {cut} does not bipartition {len(dims)} subsystems")
    d_a = prod(dims[:cut])
    d_b = prod(dims[cut:])
    if d_a * d_b != m.shape[0]:
        raise DimMismatchError("dims inconsistent with matrix")
    return m, d_a, d_b


def c2_A(rho, dims: Sequence[int] | None = None, cut: int = 1,
         restarts: int = DEFAULT_RESTARTS, seed: int = 0,
         x0: np.ndarray | None = None) -> C2Result:
    """Maximize the steered distinguishability over 2-outcome ME-POVMs on the
    A side (first `cut` subsystems). Returns the best see-saw result over a
    deterministic start (the eigenbasis ME-POVM) plus `restarts` seeded random
    starts; `x0` adds a caller-supplied warm start.
    """
    m, d_a, d_b = _bipartite(rho, dims, cut)
    rho_a = partial_trace(m, (d_a, d_b), keep=0)
    eig_a = np.linalg.eigvalsh(rho_a)
    rank = int(np.sum(eig_a > 1e-12))
    if rank <= 1:
        # Pure marginal: rho_AB is a product, every ME-POVM steers identical
        # states and the measure vanishes.
        return C2Result(value=0.0, povm=construct_me_povm(rho_a),
                        x=np.zeros((d_a, d_a)), iterations=0, pure_marginal=True)
    rho4 = m.reshape(d_a, d_b, d_a, d_b)
    l_inv = _whitening(rho_a, float(eig_a[0]))

    app_f = construct_me_povm(rho_a)
    starts = [app_f.effects[0] - app_f.effects[1]]
    if x0 is not None:
        # Route the warm start through one dual/primal projection so the
        # see-saw begins at a feasible ME-POVM.
        delta0 = _steered_difference(rho4, np.asarray(x0, dtype=complex))
        delta0 = (delta0 + delta0.conj().T) / 2.0
        vals0, vecs0 = np.linalg.eigh(delta0)
        y0 = (vecs0 * np.where(vals0 >= 0.0, 1.0, -1.0)) @ vecs0.conj().T
        starts.append(_solve_x(_back_operator(rho4, y0), rho_a, l_inv))
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        h = rng.normal(size=(d_b, d_b)) + 1j * rng.normal(size=(d_b, d_b))
        h = (h + h.conj().T) / 2.0
        vals, vecs = np.linalg.eigh(h)
        y = (vecs * np.where(vals >= 0.0, 1.0, -1.0)) @ vecs.conj().T
        starts.append(_solve_x(_back_operator(rho4, y), rho_a, l_inv))

    runs = [_seesaw_once(rho4, rho_a, x, l_inv) for x in starts]
    best_value, best_x, best_it = -np.inf, None, 0
    for value, x, it in runs:
        if value > best_value:
            best_value, best_x, best_it = value, x, it
    p1 = (np.eye(d_a) + best_x) / 2.0
    povm = MePovm2((p1, np.eye(d_a) - p1), rho_a)
    return C2Result(value=float(best_value), povm=povm, x=best_x, iterations=best_it)


def _swap_sides(m: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    return m.reshape(d_a, d_b, d_a, d_b).transpose(1, 0, 3, 2).reshape(m.shape)


def c2_B(rho, dims: Sequence[int] | None = None, cut: int = 1, **kwargs) -> C2Result:
    """Same optimization with the ME-POVM on the B side."""
    m, d_a, d_b = _bipartite(rho, dims, cut)
    return c2_A(_swap_sides(m, d_a, d_b), (d_b, d_a), cut=1, **kwargs)


# ---------------------------------------------------------------------------
# The quasi-eternal probe
# ---------------------------------------------------------------------------

def _embed3(op2: np.ndarray) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    m[:2, :2] = op2
    return m


_Q2 = _embed3(np.eye(2))
_PROJ2 = np.diag([0.0, 0.0, 1.0]).astype(complex)
_XX = np.kron(_embed3(SIGMA_X), SIGMA_X)
_YY = np.kron(_embed3(SIGMA_Y), SIGMA_Y)
_ZZ = np.kron(_embed3(SIGMA_Z), SIGMA_Z)


@dataclass(frozen=True, eq=False)
class ProbeState:
    """Classical-quantum probe (1/2)(|0><0| (x) rho1_B(t) + |1><1| (x) rho2_B(t))
    on qubit (x) (qutrit (x) qubit), built at time tau for the quasi-eternal
    family; rho2_B is stationary and rho1_B revives distinguishability exactly
    when the intermediate dynamics fails complete positivity.
    """

    alpha: float
    t0: float
    tau: float
    p: float

    def __post_init__(self):
        if self.t0 < physicality_threshold(self.alpha):
            raise UnphysicalProbeError(
                f"t0 = {self.t0} below the physicality threshold "
                f"{physicality_threshold(self.alpha):.6f}")
        if self.tau <= self.t0:
            raise NotYetNonMarkovianError(
                f"tau = {self.tau} must exceed t0 = {self.t0} for non-CP intermediates")
        lam_z = float(np.exp(-self.alpha * self.tau))
        if not 0.0 < self.p < lam_z:
            raise UnphysicalProbeError(
                f"need 0 < p < exp(-alpha tau) = {lam_z:.6f}, got p = {self.p}")

    @functools.cached_property
    def channel(self):
        return quasi_eternal(self.alpha, self.t0)

    def _lambdas(self, t):
        lx, _, lz = self.channel.lambdas(t)
        return lx, lz

    @functools.cached_property
    def _lambdas_tau(self) -> tuple[float, float]:
        return self._lambdas(self.tau)

    def pair_at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(rho1_B(t), rho2_B(t)) on the qutrit (x) qubit side; (T, 6, 6) stacks
        for a 1-D array of T times."""
        lxy_tau, lz_tau = self._lambdas_tau
        lxy_t, lz_t = self._lambdas(t)
        cxy = np.asarray(self.p * lxy_t / lxy_tau)[..., None, None]
        cz = np.asarray(self.p * lz_t / lz_tau)[..., None, None]
        rho1 = np.kron(_Q2, np.eye(2, dtype=complex)) / 4.0 \
            + cxy * (_XX - _YY) / 4.0 + cz * _ZZ / 4.0
        rho2 = np.kron((1.0 - self.p) * _Q2 / 2.0 + self.p * _PROJ2,
                       np.eye(2, dtype=complex) / 2.0)
        return rho1, np.broadcast_to(rho2, rho1.shape)

    def state_at(self, t: float) -> DensityState:
        rho1, rho2 = self.pair_at(t)
        e00 = np.diag([1.0, 0.0]).astype(complex)
        e11 = np.diag([0.0, 1.0]).astype(complex)
        full = 0.5 * (np.kron(e00, rho1) + np.kron(e11, rho2))
        return DensityState(full, (2, 3, 2))

    def closed_c2(self, t):
        """C of the probe at time t, or at each time of a 1-D array (one
        contraction call and one batched eigvalsh for the whole array)."""
        rho1, rho2 = self.pair_at(t)
        return c2_closed_probe(rho1, rho2)


def build_probe(alpha: float, t0: float, tau: float, p: float) -> ProbeState:
    """Probe for the quasi-eternal family; requires t0 past the physicality
    threshold, tau > t0, and 0 < p < exp(-alpha tau)."""
    return ProbeState(alpha=alpha, t0=t0, tau=tau, p=p)
