"""Maximally-entropic two-outcome measurements and the distinguishability
correlation measures C_A and C_B (two-outcome versions).

C_A(rho_AB) is the best guessing probability, minus 1/2, of the two-state
equiprobable ensemble that a 2-outcome ME-POVM on side A steers on side B.
Writing the POVM as {(1+X)/2, (1-X)/2} with -1 <= X <= 1 and Tr(rho_A X) = 0,

    C_A(rho_AB) = max_X ||Tr_A[rho_AB (X (x) 1)]||_1 / 2,

optimized here by a monotone see-saw with exact subproblem solutions:
given X, the trace norm's sign operator Y is read off an eigendecomposition;
given Y, Tr(X M) with M = Tr_B[rho_AB (1 (x) Y)] is maximized over the X
polytope. The constraint depends on rho_A alone, so the rounds run in its
eigenbasis, taken once per call, where rho_A = diag(lam) and every use of it
is a closed form in lam: the eigenbasis start is diagonal, and for a qubit A
side, rho_A = (1 + e sigma_z)/2, the X step has a closed form: in Bloch
coordinates the feasible X form the meet of two spheroids about the z axis,
and the optimum is a support point of one or lies on their seam, the equator.
Otherwise it is sign(M - mu rho_A), with the multiplier mu of the
maximal-entropy constraint found exactly: for full-rank rho_A, at a
generalized eigenvalue of the pencil (M, rho_A), whitened by lam^(-1/2),
where Tr rho_A sign(M - mu rho_A) jumps across zero, or else by safeguarded
Newton steps inside the smooth segment between two such breakpoints; for
singular rho_A, by the same Newton steps inside a bracket from duality.

The rounds run in coordinates, for every dimension of the measured side: each
start is the real xi with X = xi.E in a Hermitian basis E_mu of side A with
Tr(E_mu E_nu) = 2 delta (the Pauli matrices for a qubit). With
B_mu = Tr_A[rho (E_mu (x) 1)] computed once, a round evaluates each start's
candidates, the product xi @ B and the batched eigendecomposition of that
steered difference, and keeps the larger value of each start; from the kept
X, one product of the sign operators Y with the B_mu gives the coordinates
Tr(B_mu Y) / 2 of M, and the X step on those coordinates is the next
see-saw candidate. On a qubit side, where the see-saw alone converges only
linearly, a round also proposes a Newton candidate on the face of the
feasible set that the X step lands on (`_qubit_newton`), evaluated in the
same stack in the next round; since a start keeps the larger, it gains at
least what the see-saw round gains. The eigenbasis start, an optional warm
start and the seeded random starts run in lockstep as one stack, each round
serving every start still gaining; X is built as a matrix once, for the
result, and rotated back out of the eigenbasis.

Also here: the outcome-count bound for ME-POVM optimization, and the
classical-quantum probe state of the quasi-eternal family whose C backflow
is equivalent to non-CP intermediate dynamics, with that C in closed form
from the spectrum of its two steered states' difference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import copysign, cos, hypot, prod, sin, sqrt
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
    partial_trace,
    require_hermitian,
)

EFFECT_PSD_SLACK = 1e-10
COMPLETENESS_TOL = 1e-10
ME_TOL = 1e-9
SEESAW_GAIN_TOL = 1e-10
SEESAW_MAX_ITER = 400
SEESAW_TIE_RTOL = 1e-14  # relative gap below which two start values tie
DEFAULT_RESTARTS = 16
BREAKPOINT_TOL = 1e-12   # relative gap below which pencil eigenvalues form one breakpoint
MU_G_TOL = 1e-14         # |Tr(rho_A X)| that ends the multiplier search
MU_WIDTH_TOL = 1e-13     # bracket width, relative to ||m||_2 + 1, that ends it too
MU_MAX_STEPS = 100
NEWTON_MAX_STEP = 0.5    # radians: the longest Newton step a see-saw round proposes


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


def _eigen_split(rho_a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eigenvalues lam of rho_a in descending order, its eigenvectors as the
    matching columns of v, and the weights w of the eigenbasis ME-POVM, whose
    first effect is v diag(w) v^dag: w_k = (1/2 - S_(k-1)) / lam_k clipped to
    [0, 1], with S the cumulative sums of lam, so 1 up to the level where S
    reaches 1/2, the fraction omega on it, and 0 past it (also where lam_k <= 0).
    """
    lam, v = np.linalg.eigh(rho_a)
    lam, v = lam[::-1], v[:, ::-1]
    w = np.clip(np.divide(0.5 - np.cumsum(lam) + lam, lam, out=np.zeros_like(lam),
                          where=lam > 0.0), 0.0, 1.0)
    return lam, v, w


def construct_me_povm(rho_a) -> MePovm2:
    """Two-outcome ME-POVM for any density matrix, diagonal in its eigenbasis.

    With eigenvalues pi_1 >= pi_2 >= ... pick the first index where the
    cumulative weight reaches 1/2 and split that eigenprojector by
    omega = (1/2 - S(i-1)) / pi_i; the construction always succeeds. A
    rho_a that is not a (d, d) density matrix raises DimMismatchError,
    NonHermitianError or NotAStateError.
    """
    ref = DensityState(rho_a, np.shape(rho_a)[-1:]).matrix
    _, v, w = _eigen_split(ref)
    p1 = (v * w) @ v.conj().T
    return MePovm2((p1, np.eye(len(w)) - p1), ref)


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

    A round evaluates a start's candidates, its see-saw X and, on a qubit
    side, the Newton candidate of the round before, and keeps the larger.
    `iterations` is the round in which the winning start stopped gaining: the
    first round whose value exceeded the start's best so far by at most
    SEESAW_GAIN_TOL (SEESAW_MAX_ITER if none did). Round 1 evaluates the start
    itself. The winning start is the first whose value ties with the best to
    SEESAW_TIE_RTOL.
    """

    value: float
    x: np.ndarray = field(repr=False)
    iterations: int


def _steered_difference(rho4: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Tr_A[rho (X (x) 1)] for rho reshaped to (dA, dB, dA, dB), for one X or a stack.
    return np.einsum("aicj,...ca->...ij", rho4, x)


def _sign_split(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the Hermitian part of each matrix of a
    stack, and the sign operator of that part (+1 on its kernel)."""
    vals, vecs = np.linalg.eigh((h + h.conj().swapaxes(-1, -2)) / 2.0)
    signs = np.where(vals >= 0.0, 1.0, -1.0)[..., None, :]
    return vals, vecs, (vecs * signs) @ vecs.conj().swapaxes(-1, -2)


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


def _pencil_multiplier(m: np.ndarray, rho_a: np.ndarray, w: np.ndarray,
                       scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of m - mu rho_a at the exact multiplier, for a
    positive-definite diagonal rho_a = diag(w^-2).

    g(mu) = Tr rho_a sign(m - mu rho_a) falls from +1 to -1 and jumps only
    at the generalized eigenvalues nu of the pencil (m, rho_a). By Sylvester's
    law of inertia, m - nu rho_a has as many negative eigenvalues as there are
    breakpoints below nu, so one eigendecomposition at nu gives both one-sided
    limits of g. A bisection over the (clustered) breakpoints finds either a
    breakpoint whose jump straddles zero, where mu = nu exactly, or the
    smooth segment between two breakpoints that holds the root.
    """
    nus = np.linalg.eigvalsh(w[:, None] * m * w).tolist()
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


def _pencil_x(m: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Maximize Tr(X m) over Hermitian -1 <= X <= 1 with Tr(rho_a X) = 0, for
    one Hermitian m in any dimension and the diagonal rho_a = diag(lam): the
    see-saw rounds run in the eigenbasis of rho_a.

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
    rho_a = np.diag(lam)
    eig_m = np.linalg.eigvalsh(m)
    scale = float(np.max(np.abs(eig_m))) + 1.0  # ||m||_2 + 1
    if lam.min() > 1e-12:
        vals, vecs = _pencil_multiplier(m, rho_a, lam ** -0.5, scale)
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
    # xi.E, for one coordinate vector or an (S, d^2) stack, row by row (see c2_A).
    n = basis.shape[-1] ** 2
    return (xi.reshape(-1, 1, n) @ basis.reshape(n, n)).reshape(xi.shape[:-1] + basis.shape[1:])


def _qubit_x(coef: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The X step for d = 2 in the Pauli coordinates of the eigenbasis of
    rho_a = diag(lam), lam descending: for each row (a, b) of an (S, 4) stack
    of m = a + b.sigma, the coordinates xi of the optimal X = xi.sigma.

    There rho_a = (1 + e sigma_z)/2 with e = lam_0 - lam_1 >= 0, and with
    X = -e x_z + x.sigma the task is max c.x, c = b - a e z, over the meet of
    E+- = {|x| +- e x_z <= 1}. The support point of E+ (E-) is optimal if
    x_z >= 0 (<= 0) there, which needs c_z > 0 (< 0); else x = c_perp / q on
    the seam x_z = 0, |x| = 1, with c_perp = (c_x, c_y, 0) and q = |c_perp|.
    With R^2 = c_z^2 + (1 - e^2) q^2 the support point is c_perp / R plus
    x_z = sign(c_z) (c_z^2 - e^2 q^2) / (R (|c_z| + e R)), with 1 - e^2 as
    4 lam_0 lam_1, clamped at 0 (eigh may return a pure rho_a's lam_1 below
    0): no cancellation near pure rho_a. Rows with c = 0 take X = 0, which is
    optimal: there m = 2a rho_a, so Tr(X m) = 0 for every feasible X.

    The rows go one at a time in Python floats, so a row's X does not depend
    on the stack; on the few rows of a see-saw round that is also faster than
    numpy's per-call overhead.
    """
    e = float(lam[0] - lam[1])
    one_minus_e2 = 4.0 * max(float(lam[0] * lam[1]), 0.0)
    xi = []
    for a, cx, cy, bz in coef.tolist():
        cz = bz - a * e
        q2 = cx * cx + cy * cy
        big_r = sqrt(cz * cz + one_minus_e2 * q2)
        den = big_r * (abs(cz) + e * big_r)
        z = copysign(max(cz * cz - e * e * q2, 0.0) / den, cz) if den > 0.0 else 0.0
        norm = max(big_r, sqrt(q2))  # R when a support point holds, else q; 0 at c = 0
        norm = norm if norm > 0.0 else 1.0
        xi.append((-e * z, cx / norm, cy / norm, z))
    return np.array(xi).reshape(-1, 4)


def _x_step(lam: np.ndarray, basis: np.ndarray):
    """The X step of a see-saw round in the coordinates of `basis`, in the
    eigenbasis of rho_a = diag(lam): a function from an (S, d^2) stack of the
    coordinates of m to those of the X that maximize Tr(X m) over Hermitian
    -1 <= X <= 1 with Tr(rho_a X) = 0.

    For d = 2 the optimum has a closed form (`_qubit_x`); other dimensions
    take the multiplier search of `_pencil_x` row by row.
    """
    if len(lam) == 2:
        return lambda coef: _qubit_x(coef, lam)
    return lambda coef: _coords(np.array([_pencil_x(m, lam) for m in _matrix(coef, basis)])
                                .reshape(-1, *basis.shape[1:]), basis)  # (0, d, d) if empty


def _dot3(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _newton_point(c: list, p: list, h: list, e: float) -> list | None:
    """One row's Newton candidate for `_qubit_newton`, in its coordinates: the
    feasible boundary point reached from the point p, where N has gradient c
    and Hessian h, by the Newton step on the face that the X step picks; None
    where a safeguard rejects the step."""
    seam = e > 0.0 and c[2] * c[2] <= e * e * (c[0] * c[0] + c[1] * c[1])
    sigma = 0.0 if seam else copysign(1.0, c[2])  # the cap's hemisphere
    rho = hypot(p[0], p[1])
    if rho == 0.0:
        return None  # p = 0, or a pole: the tangent frame is undefined
    size = hypot(rho, p[2])
    cos_az, sin_az = p[0] / rho, p[1] / rho
    if seam:
        nz, rho = 0.0, 1.0
    else:
        nz, rho = p[2] / size, rho / size
    n = (rho * cos_az, rho * sin_az, nz)
    t_phi, t_theta = (-sin_az, cos_az, 0.0), (nz * cos_az, nz * sin_az, -rho)

    # phi(n) = N(n) / g with g = 1 + sigma e n_z: its gradient and Riemannian
    # Hessian in the frame (t_phi, t_theta), in which w = sigma r has the
    # components (0, om); N's Hessian at n is size times that at p.
    val, g = _dot3(c, n), 1.0 + sigma * e * nz
    om, g2 = -sigma * e * rho, g * g
    c_phi, c_theta = _dot3(c, t_phi), _dot3(c, t_theta)
    h_phi = [size * _dot3(row, t_phi) for row in h]
    a, g_phi = _dot3(t_phi, h_phi) / g - val / g2, c_phi / g
    if seam:  # one great circle: no theta step
        b, d, g_theta = 0.0, -1.0, 0.0
    else:
        h_theta = [size * _dot3(row, t_theta) for row in h]
        b = _dot3(t_theta, h_phi) / g - c_phi * om / g2
        d = _dot3(t_theta, h_theta) / g - 2.0 * c_theta * om / g2 \
            + 2.0 * val * om * om / (g2 * g) - val / g2
        g_theta = c_theta / g - val * om / g2
    det = a * d - b * b
    if not (a < 0.0 and det > 0.0):
        return None  # the reduced Hessian is not negative definite
    v_phi, v_theta = (b * g_theta - d * g_phi) / det, (b * g_phi - a * g_theta) / det
    step = hypot(v_phi, v_theta)
    if not step <= NEWTON_MAX_STEP:
        return None
    k, cos_step = (sin(step) / step if step > 0.0 else 1.0), cos(step)
    n = [cos_step * n[i] + k * (v_phi * t_phi[i] + v_theta * t_theta[i]) for i in range(3)]
    if sigma * n[2] < 0.0:
        return None  # the step left the cap's hemisphere
    scale = 1.0 + e * abs(n[2])
    return [v / scale for v in n]


def _qubit_newton(e: float, b: np.ndarray):
    """Newton candidates for a see-saw round on a qubit side, in the eigenbasis
    of rho_a = (1 + e sigma_z)/2: a function of the rows' Pauli coordinates x,
    the coordinates coef of their M, and the eigenvalues and eigenvectors of
    their steered differences, that returns the rows that propose a candidate
    and the candidates' coordinates; b holds the flattened B_mu.

    With X = -e x_z + x.sigma the value is N(x) = ||sum_i x_i B~_i||_1 / 2,
    B~_i = B_i - r_i B_0 with r = e z: convex and homogeneous of degree 1,
    with gradient c = b - a r (as in `_qubit_x`) and the Daleckii-Krein Hessian
    H_ij = 2 sum_{lambda_a >= 0 > lambda_b} Re(E_i,ab conj E_j,ab) / (lambda_a - lambda_b),
    E_i = V^dag B~_i V. The feasible boundary is x = n / (1 + e |n_z|) over
    unit n, smooth on each hemisphere (a cap) and kinked on the seam, the
    equator n_z = 0. Where the X step lands on the seam, the candidate is a
    Newton step along the equator through the row's point, theta = -(c.t) /
    (t^T H t - c.n) with t the azimuthal tangent. Where it lands on a cap, it
    is a Riemannian Newton step for phi(n) = N(n) / (1 + e |n_z|) in the
    tangent plane at n = x / |x|, in the tangent frame of the spherical
    angles, kept on that hemisphere. A row proposes one only where the reduced
    Hessian is negative definite, the step is at most NEWTON_MAX_STEP radians
    and its steered difference has eigenvalues of both signs. Row by row, like
    the rounds.
    """
    r = np.array([0.0, 0.0, e])
    d = round(sqrt(b.shape[1]))
    b_tilde = (b[1:] - r[:, None] * b[0]).reshape(3 * d, d)

    def candidates(x, coef, vals, vecs):
        # Rows with their point p on the z axis (p = 0 included) or without a
        # negative eigenvalue of D (then D = 0, as D is traceless) propose
        # nothing and need no Hessian.
        c = (coef[:, 1:] - coef[:, :1] * r).tolist()
        p = x[:, 1:].tolist()
        rows = [j for j, mixed in enumerate((vals[:, 0] < 0.0).tolist())
                if mixed and (p[j][0] or p[j][1])]
        # H = sum_ab Re(f_i,ab conj f_j,ab) with f_i,ab = E_i,ab sqrt(2 / (lambda_a - lambda_b))
        # on the pairs lambda_a >= 0 > lambda_b, and 0 elsewhere.
        vals, vecs = vals[rows], vecs[rows]
        e_i = vecs.conj().swapaxes(-1, -2)[:, None] @ (b_tilde @ vecs).reshape(len(rows), 3, d, d)
        pos = vals >= 0.0
        pairs = pos[:, :, None] > pos[:, None, :]
        gap = np.where(pairs, vals[:, :, None] - vals[:, None, :], 1.0)
        f = (e_i * np.sqrt(2.0 * pairs / gap)[:, None]).reshape(len(rows), 3, d * d)
        kept, points = [], []
        for j, h in zip(rows, (f @ f.conj().swapaxes(1, 2)).real.tolist()):
            point = _newton_point(c[j], p[j], h, e)
            if point is not None:
                kept.append(j)
                points.append(point)
        points = np.array(points).reshape(-1, 3)
        return kept, np.column_stack([-e * points[:, 2], points])

    return candidates


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
    SEESAW_GAIN_TOL; the first one that ties with the best wins.
    """
    for name, value in (("restarts", restarts), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
            raise ConfigParseError(f"{name} must be an integer >= 0, got {value!r}")
    m, d_a, d_b = _bipartite(rho, dims, cut)
    if x0 is not None and np.shape(x0) != (d_a, d_a):
        raise DimMismatchError(f"x0 must have shape {(d_a, d_a)}, got {np.shape(x0)}")
    x0 = x0 if x0 is None else require_hermitian(x0)
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

    # The rounds run on rho' = (V^dag (x) 1) rho (V (x) 1), whose A marginal is
    # diag(lam), and X = V X' V^dag, with coordinates xi of X' = xi.E in the
    # Hermitian basis E of side A. With B_mu = Tr_A[rho' (E_mu (x) 1)] the
    # steered difference is xi @ B, and M = Tr_B[rho' (1 (x) Y)] has the
    # coordinates Tr(M E_mu) / 2 = Tr(B_mu Y) / 2. Both products go row by
    # row, so that a start's rounds do not depend on the stack.
    lam, v, w = _eigen_split(partial_trace(m, (d_a, d_b), keep=0))
    rho4 = np.einsum("ca,cidj,db->aibj", v.conj(), rho4, v)
    basis, n = _hermitian_basis(d_a), d_a * d_a
    b = _steered_difference(rho4, basis).reshape(n, d_b * d_b)
    b_y = b.reshape(n, d_b, d_b).swapaxes(1, 2).reshape(n, d_b * d_b).T
    x_step = _x_step(lam, basis)
    newton = _qubit_newton(float(lam[0] - lam[1]), b) if d_a == 2 else None

    def m_coords(y):
        return (y.reshape(len(y), 1, d_b * d_b) @ b_y)[:, 0].real / 2.0

    x = np.concatenate([_coords(np.diag(2.0 * w - 1.0), basis)[None],
                        x_step(m_coords(_sign_split(h)[2]))])

    # Row j < len(active) of x is the see-saw candidate of start active[j]; the
    # rows after them are Newton candidates of the starts at positions `owner`.
    value, iterations = [-np.inf] * len(x), [SEESAW_MAX_ITER] * len(x)
    best_x, active, owner = list(x), list(range(len(x))), []
    for it in range(1, SEESAW_MAX_ITER + 1):
        vals, vecs, y = _sign_split((x[:, None] @ b).reshape(len(x), d_b, d_b))
        row_value = (0.5 * np.abs(vals).sum(axis=-1)).tolist()
        pick = list(range(len(active)))  # each start keeps its larger candidate
        for k, j in enumerate(owner, len(active)):
            if row_value[k] > row_value[j]:
                pick[j] = k
        rows, still = [], []
        for i, k in zip(active, pick):
            if row_value[k] > value[i]:
                best_x[i] = x[k]  # the X behind each value
            if row_value[k] > value[i] + SEESAW_GAIN_TOL:
                rows.append(k)
                still.append(i)
            else:
                iterations[i] = it
            value[i] = max(value[i], row_value[k])
        active = still
        if not active:
            break
        coef = m_coords(y[rows])
        x_next = x_step(coef)
        if newton is not None:
            owner, x_newton = newton(x[rows], coef, vals[rows], vecs[rows])
            x_next = np.concatenate([x_next, x_newton])
        x = x_next
    # Starts that reach one optimum tie to rounding; the first of them wins, so
    # that rounding does not pick the result.
    value = np.array(value)
    best = int(np.argmax(value >= (1.0 - SEESAW_TIE_RTOL) * value.max()))
    return C2Result(value=float(value[best]), x=v @ _matrix(best_x[best], basis) @ v.conj().T,
                    iterations=iterations[best])


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
        lx, _, lz = self.channel.as_affine(t).lambdas
        return np.sqrt(lx), np.sqrt(lz)

    @functools.cached_property
    def _lambdas_tau(self) -> tuple[float, float]:
        return self._lambdas(self.tau)

    def _coefficients(self, t):
        """(c_xy, c_z) = p (l_xy(t) / l_xy(tau), l_z(t) / l_z(tau)), l the square roots of
        the map's lambdas: the coefficients of rho1_B(t); arrays for an array of times."""
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
