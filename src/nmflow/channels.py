"""Channel families and map machinery.

Random-unitary qubit channels built from three time-dependent rates
(gamma_x, gamma_y, gamma_z), the quasi-eternal family
gamma = (alpha/2)(1, 1, -tanh(t - t0)), pure dephasing, and generalized
amplitude damping (GAD), whose map, intermediate maps and jump rates one base
class derives from a decay profile G(t) and an excitation weight p(t): a
fixed p (`AmpDampChannel`) or G = exp(-t/2), p = cos^2(5t) (`GadcChannel`).
Plus application to subsystems, intermediate maps V_{s,t} and Choi matrices.
Every family's `as_affine`, `intermediate` and `divisibility` (its CP/P
criterion) also take 1-D arrays of times, and then return arrays over the
times.

Conventions: subsystem order is (ancillas..., system); channels act on the
last subsystem unless told otherwise. A qubit map is stored by its diagonal
Pauli action lambda = (lx, ly, lz) plus an affine Bloch translation, so that
rho = (1 + v.sigma)/2 maps to (1 + (diag(lambda) v + w).sigma)/2. Every map
exposes its superoperator K[a, b, c, e] = Lambda(|c><e|)[a, b], and one kernel
applies stacks of superoperators to stacks of states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import prod
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BadIntervalError,
    ConfigParseError,
    DimMismatchError,
    SingularMapError,
    UnphysicalError,
)
from .numutil import adaptive_simpson
from .qmat import PAULIS

KRAUS_TOL = 1e-10
PROB_SLACK = 1e-8
DEFAULT_SCAN_STEP = 1e-3


def _log_cosh(x):
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - np.log(2.0)


def _elementwise(fn: Callable, *args):
    """fn over the broadcast scalar arguments: a float for scalars, else an array."""
    if np.ndarray not in map(type, args):
        return float(fn(*args))
    b = np.broadcast(*args)
    return np.fromiter((fn(*map(float, xs)) for xs in b), float, b.size).reshape(b.shape)


def _check_interval(t, s) -> None:
    if not np.all((0.0 <= t) & (t <= s)):  # also rejects NaN
        raise BadIntervalError(f"need 0 <= t <= s, got t={t}, s={s}")


# ---------------------------------------------------------------------------
# Rate specifications
# ---------------------------------------------------------------------------

class RateSpec:
    """A real rate function of time, evaluable at a time or an array of times
    and integrable on [t1, t2] (floats or arrays of interval ends)."""

    def rate(self, t: float) -> float:
        raise NotImplementedError

    def integral(self, t1: float, t2: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantRate(RateSpec):
    value: float

    def rate(self, t: float) -> float:
        return np.full(np.shape(t), self.value)[()]

    def integral(self, t1: float, t2: float) -> float:
        return self.value * (t2 - t1)


@dataclass(frozen=True)
class QuasiEternalZRate(RateSpec):
    """gamma(t) = -(alpha/2) tanh(t - t0), integrated in closed form."""

    alpha: float
    t0: float

    def rate(self, t: float) -> float:
        return -0.5 * self.alpha * np.tanh(t - self.t0)

    def integral(self, t1: float, t2: float) -> float:
        return 0.5 * self.alpha * (_log_cosh(t1 - self.t0) - _log_cosh(t2 - self.t0))


@dataclass(frozen=True, eq=False)
class TabulatedRate(RateSpec):
    """Piecewise-linear interpolation of (t, gamma) samples, clamped outside.

    Integrals are differences of the exact antiderivative of the interpolant:
    the trapezoid sum up to the last knot at or below t, plus the trapezoid
    from that knot to t. The slope is exact too: the right-hand one at a
    knot, +0.0 before the first knot and from the last one.
    """

    samples: tuple[tuple[float, float], ...]
    _ts: np.ndarray = field(init=False, repr=False)
    _gs: np.ndarray = field(init=False, repr=False)
    _cum: np.ndarray = field(init=False, repr=False)
    _slopes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pts = sorted((float(t), float(g)) for t, g in self.samples)
        if len(pts) < 2:
            raise ConfigParseError("tabulated rate needs at least two samples")
        if not np.all(np.isfinite(pts)):
            raise ConfigParseError(f"tabulated rate samples must be finite, got {pts}")
        object.__setattr__(self, "samples", tuple(pts))
        object.__setattr__(self, "_ts", np.array([p[0] for p in pts]))
        object.__setattr__(self, "_gs", np.array([p[1] for p in pts]))
        widths = np.diff(self._ts)
        steps = widths * (self._gs[1:] + self._gs[:-1]) / 2.0
        object.__setattr__(self, "_cum", np.concatenate(([0.0], np.cumsum(steps))))
        object.__setattr__(self, "_slopes", np.zeros(self._ts.size + 1))
        np.divide(np.diff(self._gs), widths, out=self._slopes[1:-1], where=widths > 0.0)

    def rate(self, t: float) -> float:
        return np.interp(t, self._ts, self._gs)

    def slope(self, t):
        return self._slopes[np.searchsorted(self._ts, t, side="right")]

    def _antiderivative(self, t):
        k = np.clip(np.searchsorted(self._ts, t, side="right") - 1, 0, self._ts.size - 1)
        g = np.interp(t, self._ts, self._gs)
        return self._cum[k] + (t - self._ts[k]) * (self._gs[k] + g) / 2.0

    def integral(self, t1, t2):
        return self._antiderivative(t2) - self._antiderivative(t1)


@dataclass(frozen=True)
class CallableRate(RateSpec):
    """Rate given by an arbitrary callable; integral by adaptive Simpson,
    element by element over arrays."""

    fn: Callable[[float], float]

    def rate(self, t: float) -> float:
        return _elementwise(self.fn, t)

    def integral(self, t1, t2):
        return _elementwise(lambda a, b: adaptive_simpson(self.rate, a, b, tol=1e-10), t1, t2)


def as_rate_spec(obj) -> RateSpec:
    if isinstance(obj, RateSpec):
        return obj
    if isinstance(obj, (int, float)):
        return ConstantRate(float(obj))
    if callable(obj):
        return CallableRate(obj)
    raise ConfigParseError(f"cannot interpret {obj!r} as a rate")


# ---------------------------------------------------------------------------
# Qubit maps: affine (Pauli-diagonal + translation) and Kraus
# ---------------------------------------------------------------------------

# Row (i, j) holds sigma_i[a, b] sigma_j[e, c] / 2 over (a, b, c, e), for the
# entries R_00, R_10, R_20, R_30, R_11, R_22, R_33 that an affine qubit map's
# Pauli transfer matrix R can have nonzero: K = sum over rows of R_ij * row.
_PAULI_SUPEROP = 0.5 * np.einsum("iab,jec->ijabce", PAULIS, PAULIS).reshape(4, 4, 16)[
    (0, 1, 2, 3, 1, 2, 3), (0, 0, 0, 0, 1, 2, 3)]


@dataclass(frozen=True)
class AffineQubitMap:
    """Trace-preserving qubit map with diagonal Pauli action and a Bloch shift.

    Lambda(sigma_i) = lambdas[i] * sigma_i and
    Lambda(1) = 1 + translation . sigma, so Bloch vectors map as
    v -> diag(lambdas) v + translation. Components may be arrays over times.
    """

    lambdas: tuple[float, float, float]
    translation: tuple[float, float, float] = (0.0, 0.0, 0.0)

    @property
    def transfer(self) -> np.ndarray:
        """The Pauli transfer matrix entries R_00 = 1, R_i0 = translation_i and
        R_ii = lambdas_i, in the order of `_PAULI_SUPEROP`'s rows: a (..., 7) array."""
        entries = (1.0, *self.translation, *self.lambdas)
        r = np.empty(np.broadcast(*entries).shape + (7,))
        for i, entry in enumerate(entries):
            r[..., i] = entry
        return r

    @property
    def superop(self) -> np.ndarray:
        """K[a, b, c, e] = Lambda(|c><e|)[a, b] = sum of the transfer entries times
        `_PAULI_SUPEROP`'s rows; a (T, 2, 2, 2, 2) stack when the components are
        arrays over T times."""
        r = self.transfer
        return (r @ _PAULI_SUPEROP).reshape(r.shape[:-1] + (2, 2, 2, 2))


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Channel given by Kraus operators with sum_k K_k^dag K_k = 1."""

    kraus: tuple[np.ndarray, ...]

    def __init__(self, kraus: Sequence[np.ndarray]):
        ops = tuple(np.asarray(k, dtype=complex) for k in kraus)
        if not ops:
            raise DimMismatchError("empty Kraus list")
        d = ops[0].shape[1]
        comp = sum(k.conj().T @ k for k in ops)
        defect = float(np.max(np.abs(comp - np.eye(d))))
        if defect > KRAUS_TOL:
            raise UnphysicalError(f"Kraus completeness defect {defect:.3e} > {KRAUS_TOL:.1e}")
        object.__setattr__(self, "kraus", ops)

    @property
    def superop(self) -> np.ndarray:
        """K[a, b, c, e] = Lambda(|c><e|)[a, b] = sum_k K_k[a, c] conj(K_k[b, e])."""
        ops = np.array(self.kraus)
        return np.einsum("kac,kbe->abce", ops, ops.conj())


def _apply_superops(k: np.ndarray, states: np.ndarray, dims: tuple[int, ...],
                    subsystem: int) -> np.ndarray:
    """out[t, n] = (1 (x) ... (x) Lambda_t (x) ... (x) 1)(states[n]), with Lambda_t
    given by the superoperator k[t] acting on subsystem `subsystem` of `dims`.

    k has shape (T, d, d, d, d) with d = dims[subsystem], states (N, D, D); the
    result has shape (T, N, D, D). Each state's (c, e) index pair moves to the
    front, so the states form one (d^2, N pre^2 post^2) matrix that the
    (T, d^2, d^2) stack multiplies.
    """
    d = dims[subsystem]
    pre, post = prod(dims[:subsystem]), prod(dims[subsystem + 1:])
    t, n, big = len(k), states.shape[0], states.shape[-1]
    cols = states.reshape(n, pre, d, post, pre, d, post).transpose(2, 5, 0, 1, 3, 4, 6)
    out = k.reshape(t, d * d, d * d) @ cols.reshape(d * d, n * (pre * post) ** 2)
    out = out.reshape(t, d, d, n, pre, post, pre, post)
    return out.transpose(0, 3, 4, 1, 5, 6, 2, 7).reshape(t, n, big, big)


def apply_map(qmap, rho, dims: Sequence[int], subsystem: int | None = None) -> np.ndarray:
    """Apply 1 (x) ... (x) Lambda (x) ... (x) 1 with Lambda on one subsystem of
    the matrix rho with subsystem dimensions dims; the map acts on the last
    subsystem by default.
    """
    m = np.asarray(rho, dtype=complex)
    dims = tuple(int(d) for d in dims)
    if int(np.prod(dims)) != m.shape[0]:
        raise DimMismatchError(f"prod{dims} != matrix dim {m.shape[0]}")
    n = len(dims)
    if subsystem is None:
        subsystem = n - 1
    if subsystem < 0 or subsystem >= n:
        raise DimMismatchError(f"subsystem {subsystem} out of range")
    k = qmap.superop
    if k.shape[0] != dims[subsystem]:
        raise DimMismatchError(f"map acts on dimension {k.shape[0]}, subsystem {subsystem} "
                               f"has dimension {dims[subsystem]}")
    return _apply_superops(k[None], m[None], dims, subsystem)[0, 0]


def choi(qmap, dim: int) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) Lambda(|i><j|); identity map gives dim * phi+.
    A map over T times gives a (T, dim^2, dim^2) stack."""
    k = qmap.superop
    if k.shape[-1] != dim:
        raise DimMismatchError(f"map acts on dimension {k.shape[-1]}, not {dim}")
    n = k.ndim - 4
    return k.transpose(*range(n), n + 2, n, n + 3, n + 1).reshape(k.shape[:n] + (dim * dim,) * 2)


# ---------------------------------------------------------------------------
# Random-unitary qubit channels from rate triples
# ---------------------------------------------------------------------------

def _bell_weights(one, ayz, azx, axy) -> tuple:
    """Mixing weights (p_0, p_x, p_y, p_z) of a Pauli channel from its lambdas, with
    `one` for the identity's; their derivatives from the lambdas' with `one` = -0.0."""
    return (0.25 * (one + axy + azx + ayz), 0.25 * (one - axy - azx + ayz),
            0.25 * (one - axy + azx - ayz), 0.25 * (one + axy - azx - ayz))


@dataclass(frozen=True)
class RateChannel:
    """Qubit random-unitary (unital) channel defined by three rate functions.

    The generator L_t(rho) = sum_k gamma_k(t) (sigma_k rho sigma_k - rho)
    contracts the Pauli components as
    Lambda_t(sigma_i) = A_jk(t) sigma_i, A_jk(t) = exp(-2 int_0^t (gamma_j + gamma_k)),
    with (i, j, k) cyclic: the lambdas of `as_affine(t)`.
    """

    gamma_x: RateSpec
    gamma_y: RateSpec
    gamma_z: RateSpec

    def rates(self, t: float) -> tuple[float, float, float]:
        return self.gamma_x.rate(t), self.gamma_y.rate(t), self.gamma_z.rate(t)

    def _factors(self, t1, t2) -> tuple:
        """(A_yz, A_zx, A_xy) over [t1, t2], A_jk = exp(-2 int (gamma_j + gamma_k)),
        from the three per-axis integrals, each computed once."""
        ix, iy, iz = (s.integral(t1, t2) for s in (self.gamma_x, self.gamma_y, self.gamma_z))
        return np.exp(-2.0 * (iy + iz)), np.exp(-2.0 * (iz + ix)), np.exp(-2.0 * (ix + iy))

    def as_affine(self, t) -> AffineQubitMap:
        """Lambda_t; UnphysicalError at the first time a mixing weight is < -PROB_SLACK."""
        a = self._factors(0.0, t)
        p = _bell_weights(1.0, *a)
        # At one time the builtin min: np.min's conversion of the 4-tuple to an
        # array took a third of the call. initial: no times is no failure. A NaN
        # time makes every weight NaN, which fails the >= test.
        worst = np.min(p, initial=np.inf) if isinstance(p[0], np.ndarray) else min(p)
        if not worst >= -PROB_SLACK:
            low = np.ravel(np.min(p, axis=0))
            first = np.argmax(~(low >= -PROB_SLACK))
            raise UnphysicalError(f"mixing weight {low[first]:.3e} < 0 at "
                                  f"t = {np.ravel(t)[first]}: channel not CPTP")
        return AffineQubitMap(a)

    def divisibility(self, t):
        """(smallest rate, CP, P): CP iff every rate is >= 0, P iff every pair sum is."""
        gx, gy, gz = self.rates(t)
        cp = (gx >= 0.0) & (gy >= 0.0) & (gz >= 0.0)
        p = (gx + gy >= 0.0) & (gy + gz >= 0.0) & (gz + gx >= 0.0)
        return np.minimum(np.minimum(gx, gy), gz), cp, p

    def intermediate(self, t, s) -> AffineQubitMap:
        """V_{s,t} with Lambda_s = V_{s,t} Lambda_t; requires 0 <= t <= s."""
        _check_interval(t, s)
        return AffineQubitMap(self._factors(t, s))

    def probs_derivative(self, t: float) -> tuple[float, float, float, float]:
        """d/dt of (p_0, p_x, p_y, p_z) via dA_ij/dt = -2(gamma_i+gamma_j) A_ij."""
        ayz, azx, axy = self._factors(0.0, t)
        gx, gy, gz = self.rates(t)
        # -0.0 is the exact additive identity: -0.0 + x is x, sign of zero included.
        return _bell_weights(-0.0, -2.0 * (gy + gz) * ayz, -2.0 * (gx + gz) * azx,
                             -2.0 * (gx + gy) * axy)


def quasi_eternal(alpha: float, t0: float) -> RateChannel:
    """Rates (alpha/2) * (1, 1, -tanh(t - t0)): CP-divisible until t0, P-divisible
    but not CP-divisible afterwards (when physical)."""
    if not 0 < alpha < np.inf:  # also rejects NaN
        raise ConfigParseError(f"quasi_eternal needs 0 < alpha < inf, got {alpha}")
    if not 0 <= t0 < np.inf:
        raise ConfigParseError(f"quasi_eternal needs 0 <= t0 < inf, got {t0}")
    half = ConstantRate(0.5 * alpha)
    return RateChannel(half, half, QuasiEternalZRate(alpha, t0))


@dataclass(frozen=True)
class ScaledRate(RateSpec):
    base: RateSpec
    factor: float

    def rate(self, t: float) -> float:
        return self.factor * self.base.rate(t)

    def integral(self, t1: float, t2: float) -> float:
        return self.factor * self.base.integral(t1, t2)


def dephasing(gamma) -> RateChannel:
    """Pure dephasing with rate gamma(t): sigma_x and sigma_y decay by
    exp(-int_0^t gamma) while sigma_z is preserved."""
    return RateChannel(ConstantRate(0.0), ConstantRate(0.0),
                       ScaledRate(as_rate_spec(gamma), 0.5))


def depolarizing(gamma) -> RateChannel:
    spec = as_rate_spec(gamma)
    return RateChannel(spec, spec, spec)


# ---------------------------------------------------------------------------
# Generalized amplitude damping
# ---------------------------------------------------------------------------

class _GadFamily:
    """GAD: decay toward |0> at rate gamma_minus and toward |1> at gamma_plus.
    A family supplies its profile `_profile(t) -> (G, G^2, p)` and its drift
    `_drift(t) -> (Gamma, p')` with Gamma = -2 G'/G.

    The map scales the Bloch vector by lambda = (G, G, G^2) and shifts its z
    component by w = (2p - 1)(1 - G^2). The rates
    gamma_minus = p Gamma + p' (1 - G^2) and gamma_plus = (1 - p) Gamma - p' (1 - G^2)
    are (Gamma +- (w' + Gamma w))/2 without its cancellations.
    """

    @staticmethod
    def _affine(g, g2, p) -> AffineQubitMap:
        return AffineQubitMap((g, g, g2), (0.0, 0.0, (2.0 * p - 1.0) * (1.0 - g2)))

    def rates(self, t) -> tuple[float, float]:
        """(gamma_minus, gamma_plus) at a time, or arrays over the times."""
        _, g2, p = self._profile(t)
        big_gamma, dp = self._drift(t)
        kick = dp * (1.0 - g2)
        return p * big_gamma + kick, (1.0 - p) * big_gamma - kick

    def as_affine(self, t) -> AffineQubitMap:
        """Lambda_t, CPTP iff 0 <= G(t) <= 1 (else UnphysicalError, also at a NaN
        or, for GADC, a negative time); constant at G = 0."""
        g, g2, p = self._profile(t)
        if not np.all((0.0 <= g) & (g <= 1.0)):  # also rejects NaN
            raise UnphysicalError(f"G must lie in [0, 1], got {g}")
        return self._affine(g, g2, p)

    def divisibility(self, t):
        """(min(gamma_minus, gamma_plus), CP, P): CP and P iff both rates are >= 0."""
        gm, gp = self.rates(t)
        ok = (gm >= 0.0) & (gp >= 0.0)
        return np.minimum(gm, gp), ok, ok

    def intermediate(self, t, s) -> AffineQubitMap:
        """V_{s,t} with Lambda_s = V_{s,t} Lambda_t: lambda = lambda_s / lambda_t
        and z shift w_s - lambda_z w_t; requires 0 <= t <= s. Where G(t)^2 = 0,
        V is the identity if Lambda_t = Lambda_s (G(t) = G(s) = 0 with equal
        shifts), and SingularMapError is raised otherwise."""
        _check_interval(t, s)
        before, after = self._affine(*self._profile(t)), self._affine(*self._profile(s))
        (g, _, g2), w, w_s = before.lambdas, before.translation[2], after.translation[2]
        dead = g2 == 0.0
        if np.any(dead & ((g != 0.0) | (after.lambdas[0] != 0.0) | (w != w_s))):
            raise SingularMapError("G(t)^2 = 0 and Lambda_s != Lambda_t: no intermediate map")
        # Where dead, lambda_s = lambda_t = 0, and (0 + 1) / (0 + 1) gives V = 1.
        lam = tuple((a + dead) / (b + dead) for a, b in zip(after.lambdas, before.lambdas))
        return AffineQubitMap(lam, (0.0, 0.0, w_s - lam[2] * w))


@dataclass(frozen=True, eq=False)
class AmpDampChannel(_GadFamily):
    """GAD with decay profile G(t) and fixed excitation weight p; G and dG/dt
    are rates, as in `as_rate_spec`. dG/dt may be left out only when G is a
    TabulatedRate, whose exact slope then serves."""

    g_of_t: RateSpec
    p: float
    dg_dt: RateSpec | None = None

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:  # also rejects NaN
            raise UnphysicalError(f"p must lie in [0, 1], got {self.p}")
        object.__setattr__(self, "g_of_t", as_rate_spec(self.g_of_t))
        if self.dg_dt is None and not isinstance(self.g_of_t, TabulatedRate):
            raise ConfigParseError("amp_damp needs dG/dt unless G is a TabulatedRate")
        object.__setattr__(self, "dg_dt", None if self.dg_dt is None else as_rate_spec(self.dg_dt))

    def _profile(self, t):
        g = self.g_of_t.rate(t)
        return g, g * g, self.p

    def _drift(self, t):
        return self.gamma(t), 0.0

    def gamma(self, t: float) -> float:
        """Gamma = -(2/G) dG/dt at a time or each time of an array; +0.0, not -0.0,
        where G is flat, G = 0 included; SingularMapError where G = 0 and dG/dt != 0."""
        dg = self.g_of_t.slope(t) if self.dg_dt is None else self.dg_dt.rate(t)
        g = self.g_of_t.rate(t)
        dead = g == 0.0
        # A float compares directly: np.any costs microseconds on a scalar, and
        # classify_intervals calls this once per scan point and bisection step.
        if (dead and dg != 0.0) if isinstance(g, float) else np.any(dead & (dg != 0.0)):
            raise SingularMapError("gamma undefined at G = 0 with dG/dt != 0")
        return -2.0 * dg / (g + dead) + 0.0

    def divisibility(self, t):
        """(Gamma, CP, P): CP and P iff Gamma >= 0, where both rates, p Gamma
        and (1 - p) Gamma, are."""
        gamma = self.gamma(t)
        return gamma, gamma >= 0.0, gamma >= 0.0


class GadcChannel(_GadFamily):
    """GAD with G(t) = exp(-t/2) and p(t) = cos^2(5t), so Gamma = 1 and
    gamma_minus(t) = cos^2(5t) - 5 (1 - e^-t) sin(10t) = 1 - gamma_plus(t)."""

    def _profile(self, t):
        # G^2 as exp(-t), not G * G, which moves gadc-scan's eps = 1e-5 mi_max by
        # 1.1e-16 (its 8th digit); np.square, not ** 2, which differs on numpy scalars.
        return np.exp(-0.5 * t), np.exp(-t), np.square(np.cos(5.0 * t))

    def _drift(self, t):
        return 1.0, -5.0 * np.sin(10.0 * t)


# ---------------------------------------------------------------------------
# JSON channel descriptions
# ---------------------------------------------------------------------------

def channel_from_json(obj):
    """Build a channel from a JSON object or string.

    Schemas:
      {"family": "quasi_eternal", "alpha": 0.4, "t0": 2.0}
      {"family": "gadc"}
      {"family": "dephasing", "gamma": [[t, g], ...]}
      {"family": "amp_damp", "p": 0.3, "G": [[t, G], ...]}
    """
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise ConfigParseError(f"invalid channel JSON: {exc}") from exc
    if not isinstance(obj, dict) or "family" not in obj:
        raise ConfigParseError("channel description must be an object with a 'family' key")
    family = obj["family"]
    try:
        if family == "quasi_eternal":
            return quasi_eternal(float(obj["alpha"]), float(obj["t0"]))
        if family == "gadc":
            return GadcChannel()
        if family == "dephasing":
            return dephasing(TabulatedRate(tuple(obj["gamma"])))
        if family == "amp_damp":
            g = TabulatedRate(tuple(obj["G"]))
            bad = [v for _, v in g.samples if not 0.0 <= v <= 1.0]
            if bad:
                raise ConfigParseError(f"amp_damp G samples must lie in [0, 1], got {bad}")
            return AmpDampChannel(g, float(obj["p"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigParseError(f"bad parameters for channel family {family!r}: {exc}") from exc
    raise ConfigParseError(f"unknown channel family {family!r}")

