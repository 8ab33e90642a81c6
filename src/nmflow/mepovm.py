"""Maximally-entropic two-outcome measurements and the distinguishability
correlation measures C_A and C_B (two-outcome versions).

C_A(rho_AB) is the best guessing probability, minus 1/2, of the two-state
equiprobable ensemble that a 2-outcome ME-POVM on side A steers on side B.
Writing the POVM as {(1+X)/2, (1-X)/2} with -1 <= X <= 1 and Tr(rho_A X) = 0,

    C_A(rho_AB) = max_X ||Tr_A[rho_AB (X (x) 1)]||_1 / 2,

optimized here by a monotone see-saw with exact subproblem solutions:
given X, the trace norm's sign operator Y is read off an eigendecomposition;
given Y, Tr(X M) with M = Tr_B[rho_AB (1 (x) Y)] is maximized over the X
polytope. For a qubit A side that step has a closed form: in Bloch
coordinates the feasible X form the meet of two spheroids, and the optimum is
a support point of one or lies on their seam. Otherwise it is
sign(M - mu rho_A), with the multiplier mu of the maximal-entropy constraint
found exactly: for full-rank rho_A, at a generalized eigenvalue of the pencil
(M, rho_A) where Tr rho_A sign(M - mu rho_A) jumps across zero, or else by
safeguarded Newton steps inside the smooth segment between two such
breakpoints; for singular rho_A, by the same Newton steps inside a bracket
from duality.

The rounds run in coordinates, for every dimension of the measured side: each
start is the real xi with X = xi.E in a Hermitian basis E_mu of side A with
Tr(E_mu E_nu) = 2 delta (the Pauli matrices for a qubit). With
B_mu = Tr_A[rho (E_mu (x) 1)] computed once, a round is the product xi @ B,
the batched eigendecomposition of that steered difference, one product of
the sign operators Y with the B_mu that gives the coordinates Tr(B_mu Y) / 2
of M, and the X step on those coordinates. The eigenbasis start, an optional
warm start and the seeded random starts run in lockstep as one stack, each
round serving every start still gaining; X is built as a matrix once, for
the result.

Also here: the outcome-count bound for ME-POVM optimization, and the
classical-quantum probe state of the quasi-eternal family whose C backflow
is equivalent to non-CP intermediate dynamics, with that C in closed form
from the spectrum of its two steered states' difference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import prod, sqrt
from typing import Sequence

import numpy as np

from .channels import quasi_eternal
from .divisibility import physicality_threshold
from .errors import (ConfigParseError, DimMismatchError, NotYetNonMarkovianError,
                     UnphysicalProbeError)
from .qmat import (
    DensityState,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    herm_eig,
    partial_trace,
    require_hermitian,
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
class MePovm2:
    """Two positive effects summing to the identity, checked to have outcome
    probability 1/2 each on a reference state."""

    effects: tuple[np.ndarray, np.ndarray]

    def __init__(self, effects: Sequence[np.ndarray], reference: np.ndarray):
        ops = tuple(np.asarray(e, dtype=complex) for e in effects)
        if len(ops) != 2:
            raise DimMismatchError("MePovm2 needs exactly two effects")
        d = ops[0].shape[0]
        for e in ops:
            if e.shape != (d, d):
                raise DimMismatchError("POVM effects differ in dimension")
            if float(np.linalg.eigvalsh((e + e.conj().T) / 2)[0]) < -EFFECT_PSD_SLACK:
                raise DimMismatchError("POVM effect is not positive semidefinite")
        if float(np.max(np.abs(ops[0] + ops[1] - np.eye(d)))) > COMPLETENESS_TOL:
            raise DimMismatchError("POVM effects do not sum to the identity")
        for e in ops:
            q = float(np.real(np.trace(reference @ e)))
            if abs(q - 0.5) > ME_TOL:
                raise DimMismatchError(f"outcome probability {q} deviates from 1/2")
        object.__setattr__(self, "effects", ops)


def construct_me_povm(rho_a) -> MePovm2:
    """Two-outcome ME-POVM for any state, diagonal in its eigenbasis.

    With eigenvalues pi_1 >= pi_2 >= ... pick the first index where the
    cumulative weight reaches 1/2 and split that eigenprojector by
    omega = (1/2 - S(i-1)) / pi_i; the construction always succeeds.
    """
    ref = np.asarray(rho_a, dtype=complex)
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


def povm_count_bound(d_a: int, d_b: int) -> float:
    """Sufficient number of ME-POVM outcomes when maximizing over the outcome
    count: min over z in [1/2, 1] of max(d_a/z, d_b(3z-1)/z)."""
    if not all(isinstance(d, (int, np.integer)) and 2 <= d <= 2 ** 53  # exact as floats
               for d in (d_a, d_b)):
        raise DimMismatchError(f"need integers 2 <= d_a, d_b <= 2^53, got ({d_a}, {d_b})")
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
    """The best see-saw value and the x of its ME-POVM {(1 + x)/2, (1 - x)/2}.

    `iterations` is the round in which the winning start stopped gaining: the
    first round whose value exceeded the start's best so far by at most
    SEESAW_GAIN_TOL (SEESAW_MAX_ITER if none did). Round 1 evaluates the start
    itself.
    """

    value: float
    x: np.ndarray = field(repr=False)
    iterations: int


def _steered_difference(rho4: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Tr_A[rho (X (x) 1)] for rho reshaped to (dA, dB, dA, dB), for one X or a stack.
    return np.einsum("aicj,...ca->...ij", rho4, x)


def _sign_split(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the Hermitian part of each matrix of a stack, and the sign
    operator of that part (+1 on its kernel)."""
    vals, vecs = np.linalg.eigh((h + h.conj().swapaxes(-1, -2)) / 2.0)
    signs = np.where(vals >= 0.0, 1.0, -1.0)[..., None, :]
    return vals, (vecs * signs) @ vecs.conj().swapaxes(-1, -2)


def _newton_multiplier(m: np.ndarray, rho_a: np.ndarray, lo: float, hi: float,
                       g_lo: float, g_hi: float,
                       scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of m - mu rho_a at the root mu of
    g(mu) = Tr rho_a sign(m - mu rho_a) in (lo, hi), where g(lo+) > 0 > g(hi-);
    the first step is the secant root of (lo, g_lo) and (hi, g_hi).

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


def _inverse_cholesky(rho_a: np.ndarray, eig_a: np.ndarray) -> np.ndarray | None:
    # The l_inv argument of `_pencil_x`: None when rho_a is singular.
    return np.linalg.inv(np.linalg.cholesky(rho_a)) if eig_a[0] > 1e-12 else None


def _pencil_x(m: np.ndarray, rho_a: np.ndarray, l_inv: np.ndarray | None) -> np.ndarray:
    """Maximize Tr(X m) over Hermitian -1 <= X <= 1 with Tr(rho_a X) = 0, for
    one Hermitian m in any dimension, where l_inv is the inverse Cholesky
    factor of rho_a, or None when rho_a is singular.

    The optimum is X = sign(m - mu rho_a) for the multiplier mu that zeroes
    Tr(rho_a X); where g(mu) = Tr rho_a sign(m - mu rho_a) jumps across zero,
    the weight on the kernel eigenvectors is chosen fractionally to meet the
    constraint exactly.

    For singular rho_a the root is bracketed by duality: g(mu) is minus the
    slope of the convex f(mu) = ||m - mu rho_a||_1, and f(mu) >= |mu| - ||m||_1
    exceeds f(0) = ||m||_1 once |mu| > 2 ||m||_1, so g > 0 below -B and g < 0
    above B = 2 ||m||_1 + 1. The Newton steps start from mu = 0, the secant
    root of g's limits +1 and -1.
    """
    eig_m = np.linalg.eigvalsh(m)
    scale = float(np.max(np.abs(eig_m))) + 1.0  # ||m||_2 + 1
    if l_inv is not None:
        vals, vecs = _pencil_multiplier(m, rho_a, l_inv, scale)
    else:
        bound = 2.0 * float(np.abs(eig_m).sum()) + 1.0
        vals, vecs = _newton_multiplier(m, rho_a, -bound, bound, 1.0, -1.0, scale)

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


@functools.cache
def _hermitian_basis(d: int) -> np.ndarray:
    """(d^2, d, d) generalized Gell-Mann basis of the d x d Hermitian matrices,
    Tr(E_mu E_nu) = 2 delta_mu,nu: sqrt(2/d) 1, then for each j < k the
    symmetric and antisymmetric off-diagonal pair, then the traceless
    diagonals. For d = 2 it is (1, sigma_x, sigma_y, sigma_z)."""
    basis = [sqrt(2.0 / d) * np.eye(d, dtype=complex)]
    for j in range(d):
        for k in range(j + 1, d):
            sym, anti = np.zeros((2, d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            anti[j, k], anti[k, j] = -1.0j, 1.0j
            basis += [sym, anti]
    for n in range(1, d):
        diag = np.zeros(d)
        diag[:n], diag[n] = 1.0, -float(n)
        basis.append(np.diag(sqrt(2.0 / (n * (n + 1))) * diag).astype(complex))
    basis = np.array(basis)
    basis.flags.writeable = False
    return basis


def _coords(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    # The real xi with x = xi.E, for one Hermitian matrix or a stack.
    return np.einsum("...jk,ikj->...i", x, basis).real / 2.0


def _matrix(xi: np.ndarray, basis: np.ndarray) -> np.ndarray:
    # xi.E, for one coordinate vector or an (S, d^2) stack.
    d = basis.shape[-1]
    return (xi @ basis.reshape(d * d, d * d)).reshape(xi.shape[:-1] + (d, d))


def _qubit_x(coef: np.ndarray, eig_a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The X step for d = 2 in Pauli coordinates: for each row (a, b) of an
    (S, 4) stack of m = a + b.sigma, the coordinates xi of the optimal
    X = xi.sigma; r is the Bloch vector of rho_a and eig_a its ascending
    eigenvalues.

    With rho_a = (1 + r.sigma)/2 and X = -(r.x) + x.sigma, the task is
    max c.x, c = b - a r, over the meet of E+- = {|x| +- r.x <= 1}. The
    support point of E+ (E-) is optimal if r.x >= 0 (<= 0) there, which
    needs c.u > 0 (< 0); else x = c_perp / q on the seam u.x = 0, |x| = 1.
    With e = |r|, u = r / e, c_u = c.u, q = |c_perp| = |c - c_u u| and
    R^2 = c_u^2 + (1 - e^2) q^2 the support point is c_perp / R plus
    u.x = sign(c_u) (c_u^2 - e^2 q^2) / (R (|c_u| + e R)), with 1 - e^2 from
    eig_a as 4 lambda_0 lambda_1, clamped at 0 (eigvalsh may return a pure
    rho_a's lambda_0 below 0): no cancellation near pure rho_a. Rows with
    c = 0 take X = 0, which is optimal: there m = 2a rho_a, so Tr(X m) = 0
    for every feasible X.
    """
    c = coef[:, 1:] - coef[:, :1] * r
    e = sqrt(r @ r)
    u = r / e if e > 0.0 else r
    c_u = (c * u).sum(axis=1)  # row by row, so a row's X does not depend on the stack
    c_perp = c - c_u[:, None] * u
    q2 = np.einsum("si,si->s", c_perp, c_perp)
    big_r = np.sqrt(c_u ** 2 + 4.0 * max(float(eig_a[0] * eig_a[1]), 0.0) * q2)
    num, den = np.maximum(c_u ** 2 - e * e * q2, 0.0), big_r * (np.abs(c_u) + e * big_r)
    s = np.sign(c_u) * np.divide(num, den, out=np.zeros(len(c)), where=den > 0.0)
    norm = np.maximum(big_r, np.sqrt(q2))  # R when a support point holds, else q; 0 at c = 0
    xi = np.empty((len(c), 4))
    xi[:, 1:] = s[:, None] * u + c_perp / np.where(norm > 0.0, norm, 1.0)[:, None]
    xi[:, 0] = -(xi[:, 1:] * r).sum(axis=1)
    return xi


def _x_step(rho_a: np.ndarray, eig_a: np.ndarray, basis: np.ndarray):
    """The X step of a see-saw round in the coordinates of `basis`: a function
    from an (S, d^2) stack of the coordinates of m to those of the X that
    maximize Tr(X m) over Hermitian -1 <= X <= 1 with Tr(rho_a X) = 0; eig_a
    are the ascending eigenvalues of rho_a.

    For d = 2 the optimum has a closed form (`_qubit_x`), which needs no
    Cholesky factor; other dimensions take the multiplier search of
    `_pencil_x` row by row.
    """
    if len(rho_a) == 2:
        r = 2.0 * _coords(rho_a, basis)[1:]
        return lambda coef: _qubit_x(coef, eig_a, r)
    l_inv = _inverse_cholesky(rho_a, eig_a)
    return lambda coef: _coords(np.array([_pencil_x(m, rho_a, l_inv)
                                          for m in _matrix(coef, basis)]), basis)


def _bipartite(rho, dims, cut):
    if not isinstance(rho, DensityState):
        if not dims:
            raise DimMismatchError("dims required")
        rho = DensityState(rho, dims)
    if not 0 < cut < len(rho.dims):
        raise DimMismatchError(f"cut {cut} does not bipartition {len(rho.dims)} subsystems")
    return rho.matrix, prod(rho.dims[:cut]), prod(rho.dims[cut:])


def c2_A(rho, dims: Sequence[int] | None = None, cut: int = 1,
         restarts: int = DEFAULT_RESTARTS, seed: int = 0,
         x0: np.ndarray | None = None) -> C2Result:
    """Maximize the steered distinguishability over 2-outcome ME-POVMs on the
    A side (first `cut` subsystems). Returns the best see-saw result over a
    deterministic start (the eigenbasis ME-POVM) plus `restarts` seeded random
    starts; `x0` adds a caller-supplied warm start, a Hermitian (d_A, d_A)
    matrix. The starts run in lockstep, each until its gain is at most
    SEESAW_GAIN_TOL; the first best one wins.
    """
    if restarts < 0:
        raise ConfigParseError(f"restarts must be >= 0, got {restarts}")
    m, d_a, d_b = _bipartite(rho, dims, cut)
    if x0 is not None and np.shape(x0) != (d_a, d_a):
        raise DimMismatchError(f"x0 must have shape {(d_a, d_a)}, got {np.shape(x0)}")
    x0 = x0 if x0 is None else require_hermitian(x0)
    rho_a = partial_trace(m, (d_a, d_b), keep=0)
    eig_a = np.linalg.eigvalsh(rho_a)
    rho4 = m.reshape(d_a, d_b, d_a, d_b)

    # Each start after the eigenbasis ME-POVM projects a B-side Hermitian to a
    # feasible X: the warm start's steered difference, then one seeded random
    # Hermitian per restart, each made traceless: a definite one would give
    # Y = +-1, M = +-rho_A, and every feasible X would be optimal.
    g = np.random.default_rng(seed).normal(size=(restarts, 2, d_b, d_b))
    h = g[:, 0] + 1j * g[:, 1]
    if x0 is not None:
        h = np.concatenate([_steered_difference(rho4, x0)[None], h])
    h -= np.trace(h, axis1=1, axis2=2).real[:, None, None] / d_b * np.eye(d_b)

    # Coordinates xi of X = xi.E in the Hermitian basis E of side A. With
    # B_mu = Tr_A[rho (E_mu (x) 1)] the steered difference is xi @ B, and
    # M = Tr_B[rho (1 (x) Y)] has the coordinates Tr(M E_mu) / 2 = Tr(B_mu Y) / 2.
    # Both products go row by row, so that a start's rounds do not depend on
    # the stack.
    basis, n = _hermitian_basis(d_a), d_a * d_a
    b = _steered_difference(rho4, basis).reshape(n, d_b * d_b)
    b_y = b.reshape(n, d_b, d_b).swapaxes(1, 2).reshape(n, d_b * d_b).T
    x_step = _x_step(rho_a, eig_a, basis)

    def step(y):
        return x_step((y.reshape(len(y), 1, d_b * d_b) @ b_y)[:, 0].real / 2.0)

    app_f = construct_me_povm(rho_a)
    x = np.concatenate([_coords(app_f.effects[0] - app_f.effects[1], basis)[None],
                        step(_sign_split(h)[1])])

    value = np.full(len(x), -np.inf)
    best_x, iterations = x.copy(), np.full(len(x), SEESAW_MAX_ITER)
    active = np.arange(len(x))
    for it in range(1, SEESAW_MAX_ITER + 1):
        vals, y = _sign_split((x[:, None] @ b).reshape(len(x), d_b, d_b))
        new_value, old_value = 0.5 * np.abs(vals).sum(axis=-1), value[active]
        up = new_value > old_value
        best_x[active[up]] = x[up]  # the X behind each value
        value[active] = np.maximum(old_value, new_value)
        grows = new_value > old_value + SEESAW_GAIN_TOL
        iterations[active[~grows]] = it
        active = active[grows]
        if not active.size:
            break
        x = step(y[grows])
    best = int(np.argmax(value))
    return C2Result(value=float(value[best]), x=_matrix(best_x[best], basis),
                    iterations=int(iterations[best]))


def _swap_sides(m: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    return m.reshape(d_a, d_b, d_a, d_b).transpose(1, 0, 3, 2).reshape(m.shape)


def c2_B(rho, dims: Sequence[int] | None = None, **kwargs) -> C2Result:
    """Same optimization with the ME-POVM on the B side: every subsystem after
    the first (group the dims for another split)."""
    m, d_a, d_b = _bipartite(rho, dims, 1)
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
        if not self.t0 >= physicality_threshold(self.alpha):  # also rejects NaN
            raise UnphysicalProbeError(
                f"t0 = {self.t0} below the physicality threshold "
                f"{physicality_threshold(self.alpha):.6f}")
        if not self.tau > self.t0:  # also rejects NaN
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

    def _coefficients(self, t):
        """(c_xy, c_z) = p (lambda_xy(t) / lambda_xy(tau), lambda_z(t) / lambda_z(tau)),
        the correlated coefficients of rho1_B(t); arrays for an array of times."""
        lxy_tau, lz_tau = self._lambdas_tau
        lxy_t, lz_t = self._lambdas(t)
        return self.p * lxy_t / lxy_tau, self.p * lz_t / lz_tau

    def state_at(self, t: float) -> DensityState:
        c_xy, c_z = self._coefficients(t)
        rho1 = np.kron(_Q2, np.eye(2, dtype=complex)) / 4.0 \
            + c_xy * (_XX - _YY) / 4.0 + c_z * _ZZ / 4.0
        rho2 = np.kron((1.0 - self.p) * _Q2 / 2.0 + self.p * _PROJ2,
                       np.eye(2, dtype=complex) / 2.0)
        full = np.zeros((12, 12), dtype=complex)
        full[:6, :6], full[6:, 6:] = rho1 / 2.0, rho2 / 2.0
        return DensityState(full, (2, 3, 2))

    def closed_c2(self, t):
        """C = ||rho1_B(t) - rho2_B(t)||_1 / 4 of the probe at time t, or at
        each time of an array, from the spectrum of the difference: on the
        qutrit's first two levels (x) the qubit it is diagonal in the Bell
        basis, with (p + c_z +- 2 c_xy)/4 and (p - c_z)/4 twice; on its third
        level it is -p/2 twice. At t = tau, C = p/2."""
        c_xy, c_z = self._coefficients(t)
        p = self.p
        return ((abs(p + c_z + 2.0 * c_xy) + abs(p + c_z - 2.0 * c_xy)
                 + 2.0 * abs(p - c_z)) / 4.0 + p) / 4.0


def build_probe(alpha: float, t0: float, tau: float, p: float) -> ProbeState:
    """Probe for the quasi-eternal family; requires t0 past the physicality
    threshold, tau > t0, and 0 < p < exp(-alpha tau)."""
    return ProbeState(alpha=alpha, t0=t0, tau=tau, p=p)
