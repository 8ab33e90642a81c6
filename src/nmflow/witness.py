"""Time-scan drivers and analysis tools for correlation backflows.

Backflow detection over a time grid, with fixed increase margins and onsets
refined to ONSET_REFINE_TOL by `bisect_root` on two-time stacks; the mutual
information and negativity of the maximally entangled pair with one half
under a unital channel in closed form, and its entanglement-breaking time from
that negativity; Haar sampling of pure state vectors with a vectorized
mutual-information scan; the generalized-amplitude-damping scan over weakly
entangled probes; and the Hessian of the mutual-information rate at
stationary states of random-unitary qubit dynamics, numerically from the
Daleckii-Krein sum and as its closed-form spectrum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import prod
from typing import Callable, Sequence

import numpy as np

from . import correlations
from .channels import _PAULI_SUPEROP, GadcChannel, _apply_superops, _bell_weights
from .divisibility import min_choi_eig
from .errors import (
    BoundaryStateError,
    ConfigParseError,
    DimMismatchError,
    NeverBreakingError,
    NmflowError,
    NotAStateError,
    PrecisionLossWarning,
)
from .numutil import bisect_root, chunk_indices, parallel_map, thread_count
from .qmat import EPS_MACHINE, PAULIS, TRACE_TOL, DensityState, jacobi_eigvalsh4

ONSET_MARGIN = 1e-10  # rise per grid step that counts as an increase
SCAN_MARGIN = 1e-12  # min_t_nm_scan's increase margin (see there)
ONSET_REFINE_TOL = 1e-4  # bisection width of a refined onset
EB_FLOOR = 1e-12  # negativity at or below which find_t_eb counts the pair as separable
EB_MAX_POINTS = 100_000  # most coarse-scan points find_t_eb allows (t_max <= 5000)
EB_COARSE = 0.05  # find_t_eb's coarse-scan step
EB_CHUNK = 64  # points in find_t_eb's first coarse-scan chunk
CHUNK_TIMES = 128  # times per chunk of min_t_nm_scan's fold
CHUNK_MATRICES = 2 ** 14  # matrices per chunk of a group's MI scan: states times times
BASIS_TIMES = 128  # points per block of min_t_nm_scan's per-state eigenbasis


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if not 0 < value < np.inf:  # also rejects NaN
            raise ConfigParseError(f"{name} must be positive and finite, got {value}")


def _check_times(times, name: str = "times") -> np.ndarray:
    """The times as a float array, checked to be 1-D, finite and >= 0, in any order."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not (np.all(np.isfinite(times)) and np.all(times >= 0.0)):
        raise ConfigParseError(f"{name} must be a 1-D array of finite times t >= 0")
    return times


def _check_grid(grid) -> np.ndarray:
    """The grid as checked by _check_times, and strictly increasing with >= 2 points."""
    grid = _check_times(grid, "grid")
    if grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ConfigParseError("grid must be strictly increasing with >= 2 points")
    return grid


# ---------------------------------------------------------------------------
# Trajectories and backflow reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Trajectory:
    """An initial density matrix, the channel evolving its last subsystem, and
    a finite, strictly increasing time grid from t >= 0 (all checked when built).

    A measure maps (states, dims) to values: `measure_series` calls it once on
    the (T, D, D) stack of the states at T times, built as in the MI scans
    (see `_mi_setup`).
    """

    initial: np.ndarray
    channel: object
    dims: tuple[int, ...]
    grid: np.ndarray

    def __post_init__(self):
        grid = _check_grid(self.grid)
        state = DensityState(self.initial, self.dims)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "initial", state.matrix)
        object.__setattr__(self, "dims", state.dims)

    def measure_series(self, measure: Callable, times: np.ndarray) -> np.ndarray:
        """The measure at each of a 1-D array of finite times t >= 0, in any order."""
        times = _check_times(times)
        if self.dims[-1] != 2:
            raise DimMismatchError(f"a qubit map cannot act on the last subsystem of {self.dims}")
        coords, rows = _transfer_rows(self.channel.as_affine(times))
        terms = _apply_superops(rows, self.initial[None], self.dims, len(self.dims) - 1)[:, 0]
        return np.asarray(measure(_combine(coords, 0, len(coords), terms), self.dims),
                          dtype=float)


@dataclass(frozen=True)
class BackflowReport:
    """Detected increase intervals of a correlation measure along a trajectory."""

    onsets: tuple[float, ...]
    intervals: tuple[tuple[float, float], ...]


def _increase_intervals(grid: np.ndarray, series: np.ndarray, margin: float):
    # Maximal runs of steps that rise by more than margin, as (start time, end
    # time, index of the first step).
    edges = np.diff(np.concatenate(([0], (np.diff(series) > margin).astype(np.int8), [0])))
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    return [(float(grid[i]), float(grid[j]), int(i)) for i, j in zip(starts, stops)]


def scan_backflow(measure: Callable, traj: Trajectory) -> BackflowReport:
    """Locate intervals where a correlation measure increases along a trajectory.

    The measure is evaluated once on the trajectory's (T, D, D) state stack
    (see Trajectory); onsets are refined with calls on two-time stacks (see
    series_backflow). Empty report on CP-divisible dynamics.
    """
    return series_backflow(traj.grid, traj.measure_series(measure, traj.grid),
                           lambda ts: traj.measure_series(measure, ts))


def series_backflow(grid: np.ndarray, series: np.ndarray,
                    at: Callable[[np.ndarray], np.ndarray]) -> BackflowReport:
    """Increase intervals of a series sampled on a grid: maximal runs of steps
    that rise by more than ONSET_MARGIN. Onsets are the first grid times of
    each interval, refined to ONSET_REFINE_TOL by bisection on the local
    (central-difference) time derivative of at(ts), the series as a function
    of a 1-D array of times; each difference quotient is one call on two times.
    """
    raw = _increase_intervals(grid, series, ONSET_MARGIN)
    return BackflowReport(onsets=tuple(_refine_onset(at, grid, i) for _, _, i in raw),
                          intervals=tuple((start, end) for start, end, _ in raw))


def _refine_onset(at: Callable[[np.ndarray], np.ndarray], grid: np.ndarray, idx: int) -> float:
    # Bisection on [grid[idx-1], grid[idx+1]] for where the difference quotient
    # starts to rise: grid[idx] if it already rises at the lower end, the upper
    # end if it does not rise there.
    if idx == 0:
        return float(grid[0])
    delta = min(1e-5, float(grid[idx] - grid[idx - 1]) / 4.0)

    def rising(t: float) -> float:
        after, before = at(np.array([t + delta, max(t - delta, float(grid[0]))]))
        return 1.0 if after - before > 0 else -1.0

    lo, hi = float(grid[idx - 1]), float(grid[idx + 1])
    if rising(lo) > 0:
        return float(grid[idx])
    if rising(hi) < 0:
        return hi
    return bisect_root(rising, lo, hi, tol=ONSET_REFINE_TOL)


def find_t_eb(channel, tol: float = 1e-3, t_max: float = 20.0) -> float:
    """First time the negativity of phi+ with one half under a unital channel hits 0.

    Coarse scan over the accumulated points 0, EB_COARSE, EB_COARSE +
    EB_COARSE, ... up to t_max (at most EB_MAX_POINTS of them, else
    ConfigParseError before anything is allocated), evaluated by
    `phi_plus_negativity` in chunks that double from EB_CHUNK points and stop
    at the first chunk that reaches EB_FLOOR, followed by bisection to tol
    between the last point above EB_FLOOR and the first at or below it;
    raises NeverBreakingError when the negativity stays positive up to t_max.
    """
    _check_positive(tol=tol, t_max=t_max)
    count = t_max / EB_COARSE
    if count > EB_MAX_POINTS:
        raise ConfigParseError(f"the t_EB coarse scan of {count:.4g} points exceeds "
                               f"{EB_MAX_POINTS}")
    ts = np.cumsum(np.concatenate(([0.0], np.full(int(count) + 1, EB_COARSE))))
    ts = ts[ts <= t_max + 1e-12]
    values, hits = np.empty(0), np.empty(0)
    while not hits.size:
        chunk = ts[len(values):len(values) + max(EB_CHUNK, len(values))]
        if not chunk.size:
            raise NeverBreakingError(f"negativity still {values[-1]:.3e} at t = {t_max}")
        values = np.concatenate([values, phi_plus_negativity(channel, chunk)])
        hits = np.flatnonzero(values[1:] <= EB_FLOOR)
    k = int(hits[0]) + 1
    if values[k - 1] <= EB_FLOOR:
        return float(ts[k - 1])  # already separable at the previous point
    return bisect_root(lambda s: float(phi_plus_negativity(channel, s)) - EB_FLOOR,
                       float(ts[k - 1]), float(ts[k]), tol=tol)


def _phi_plus_weights(channel, t) -> tuple:
    # Bell weights (p_0, p_x, p_y, p_z) of phi+ with one half under Lambda_t.
    qmap = channel.as_affine(t)
    if any(np.count_nonzero(w) for w in qmap.translation):
        raise ConfigParseError("phi+ stays Bell-diagonal only under a unital map")
    return _bell_weights(1.0, *qmap.lambdas)


def phi_plus_mi(channel, t):
    """Mutual information of phi+ with one half under a unital channel, at a time or
    an array of times: the state is Bell-diagonal with the mixing weights p of the
    map, so I = 2 ln 2 - H(p). ConfigParseError where a map shifts the Bloch vector."""
    return 2.0 * np.log(2.0) - correlations.shannon(np.stack(_phi_plus_weights(channel, t), -1))


def phi_plus_negativity(channel, t):
    """Negativity of the same state, max(0, max_k p_k - 1/2): a Bell-diagonal
    state is entangled iff a weight exceeds 1/2 (Horodecki, PRA 54, 1838)."""
    return np.maximum(0.0, np.max(_phi_plus_weights(channel, t), axis=0) - 0.5)


# ---------------------------------------------------------------------------
# Random pure states and vectorized mutual-information scans
# ---------------------------------------------------------------------------

def sample_pure_vectors(dims: Sequence[int], count: int, seed: int) -> np.ndarray:
    """Haar-random pure state vectors, one per row: complex Gaussian amplitudes
    normalized; deterministic for a fixed seed."""
    d = prod(int(x) for x in dims)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _real_representatives(vectors: np.ndarray) -> np.ndarray:
    # (U_A (x) R_z) psi as a real vector: R_z turns rho_S's Bloch vector to
    # (|w_perp|, 0, w_z), i.e. rho_S -> |rho_S| entrywise, and
    # sum_k sqrt(mu_k) |k>|e_k> purifies that real rho_S.
    psi = vectors.reshape(-1, 2, 2)
    mu, e = np.linalg.eigh(np.abs(np.einsum("nas,nat->nst", psi, psi.conj())))
    return (e * np.sqrt(np.maximum(mu, 0.0))[:, None, :]).transpose(0, 2, 1).reshape(-1, 4)


def _transfer_rows(maps):
    # The (P, R) transfer entries c(t) of maps over P times that are nonzero at
    # any of them (1 and the three lambdas for a Pauli channel), and the
    # (R, 2, 2, 2, 2) rows K_r of `_PAULI_SUPEROP` they weigh: each map is
    # sum_r c_r(t) K_r.
    coords = maps.transfer
    rows = np.flatnonzero(np.any(coords != 0.0, axis=0))
    return coords[:, rows], _PAULI_SUPEROP[rows].reshape(-1, 2, 2, 2, 2)


def _combine(coords: np.ndarray, a: int, b: int, terms: np.ndarray) -> np.ndarray:
    # sum_r coords[t, r] terms[r] for the rows t in [a, b) of the (P, R)
    # coords, as one (b - a, R) x (R, ...) BLAS product in the layout of terms.
    # A one-row product would run as gemv, whose bits differ from gemm's, so
    # it borrows a neighbouring row, or a copy of itself when P = 1: every
    # value then comes from gemm, the same bits in any chunk and any stack.
    lo = min(a, max(len(coords) - 2, 0))
    rows = coords[lo:max(b, lo + 2)] if len(coords) != 1 else coords[[0, 0]]
    out = rows @ terms.reshape(len(terms), prod(terms.shape[1:]))
    return out[a - lo:b - lo].reshape((b - a,) + terms.shape[1:])


def _mi_setup(channel, vectors: np.ndarray, grid: np.ndarray):
    """The checked input of the MI scans, from one `as_affine(grid)` call: the
    transfer entries c(t) and rows K_r of `_transfer_rows`, the (R, N, 4, 4)
    images G_r = (1 (x) K_r)(rho) of the initial states and their
    (R, N, 2, 2) partial traces over the ancilla, and the states' S(rho_A).
    Each evolved state is sum_r c_r(t) G_r, and its rho_S the same sum of the
    partial traces. When every map on the grid commutes with rotations about
    z (lambda_x == lambda_y, no x or y translation: every family of the
    package) and the rows are real, each psi becomes the real
    (U_A (x) R_z) psi, which has the same I(t), and the G_r are real.
    Lambda_t is trace preserving, so S(rho_A) is taken once per state and
    carries no rounding of the steps."""
    vectors = np.asarray(vectors)
    if vectors.ndim != 2 or vectors.shape[1] != 4:
        raise DimMismatchError(f"need (N, 4) state vectors, got shape {vectors.shape}")
    if not np.all(np.isfinite(vectors)):
        raise ConfigParseError("state vectors must be finite")
    defect = np.abs(np.sum(np.abs(vectors) ** 2, axis=1) - 1.0)
    if np.any(defect > TRACE_TOL):
        raise NotAStateError(f"state vectors need unit norm: |norm^2 - 1| = {defect.max():.2e}")
    grid = _check_times(grid, "grid")
    maps = channel.as_affine(grid)
    coords, rows = _transfer_rows(maps)
    about_z = np.all(maps.lambdas[0] == maps.lambdas[1]) and not np.any(maps.translation[:2])
    if about_z and not rows.imag.any():
        rows, vectors = rows.real, _real_representatives(vectors)
    states0 = np.einsum("na,nb->nab", vectors, vectors.conj())
    joint = _apply_superops(rows, states0, (2, 2), 1)
    g4 = joint.reshape(*joint.shape[:2], 2, 2, 2, 2)
    r4 = states0.reshape(-1, 2, 2, 2, 2)
    return (coords, joint, g4[..., 0, :, 0, :] + g4[..., 1, :, 1, :],
            correlations.qubit_entropy(r4[:, :, 0, :, 0] + r4[:, :, 1, :, 1]))


def _in_groups(run: Callable[[int, int], None], n: int, workers: int | None) -> None:
    # run(lo, hi) on at most `workers` (default thread_count()) contiguous
    # groups [lo, hi) covering range(n), each group on a thread of its own.
    workers = thread_count() if workers is None else max(1, workers)
    groups = list(chunk_indices(n, max(1, -(-n // workers))))
    parallel_map(lambda group: run(*group), groups, len(groups))


def mi_series(channel, vectors: np.ndarray, grid: np.ndarray,
              workers: int | None = None) -> np.ndarray:
    """Mutual information I(t) for a batch of two-qubit pure initial states
    under 1 (x) Lambda_t; returns an array of shape (len(grid), n_states).

    The evolved states are sum_r c_r(t) G_r from one `as_affine(grid)` call
    (see `_mi_setup`): real when every map commutes with rotations about z,
    complex otherwise. The joint spectra come from `qmat.jacobi_eigvalsh4`,
    both marginal entropies in closed form, the ancilla's once per state.
    The states are cut into at most `workers` (default `thread_count()`)
    contiguous groups, and one thread scans each group in chunks of at most
    CHUNK_MATRICES matrices (times x states), and at least two times. A
    state's values do not depend on the others in its stack, so they do not
    depend on the groups or the chunks.
    """
    coords, joint, side, s_a = _mi_setup(channel, vectors, grid)
    out = np.empty((len(coords), len(s_a)))

    def run(lo, hi):
        chunk = max(2, CHUNK_MATRICES // (hi - lo))
        for a, b in chunk_indices(len(coords), chunk):
            out[a:b, lo:hi] = _chunk_mi(coords, a, b, joint[:, lo:hi], side[:, lo:hi],
                                        s_a[lo:hi])

    _in_groups(run, len(s_a), workers)
    return out


def _non_cp_steps(channel, grid: np.ndarray) -> np.ndarray:
    # Steps [t_i, t_i+1] whose intermediate map is not strictly CP: smallest
    # Choi eigenvalue <= 0 (the CP boundary included) or NaN, or no such map.
    # A stack with a step that has none is split in halves down to that step.
    try:
        return ~(min_choi_eig(channel.intermediate(grid[:-1], grid[1:])) > 0.0)
    except NmflowError:
        if grid.size == 2:
            return np.ones(1, dtype=bool)
        half = grid.size // 2
        return np.concatenate((_non_cp_steps(channel, grid[:half + 1]),
                               _non_cp_steps(channel, grid[half:])))


def _block_basis(coords: np.ndarray, mid: int, terms: np.ndarray) -> np.ndarray:
    # The (R, n, 4, 4) terms G_r, a copy of the caller's, rotated in place to
    # W^H G_r W with W the eigenvectors of each state's joint matrix at point
    # mid, one term at a time so that the temporary is one (n, 4, 4) array.
    # Spectra and the partial traces over the ancilla stay as they are.
    w = np.linalg.eigh(_combine(coords, mid, mid + 1, terms)[0])[1]
    for term in terms:
        np.matmul(w.conj().swapaxes(-1, -2) @ term, w, out=term)
    return terms


def _chunk_mi(coords: np.ndarray, a: int, b: int, joint: np.ndarray, side: np.ndarray,
              s_a: np.ndarray) -> np.ndarray:
    # MI (b - a, n) at points [a, b) from the (R, n, 4, 4) joint terms, rotated
    # or not, the (R, n, 2, 2) terms of rho_S and the states' S(rho_A) (n,).
    spectra = jacobi_eigvalsh4(_combine(coords, a, b, joint).reshape(-1, 4, 4))
    s_s = correlations.qubit_entropy(_combine(coords, a, b, side))
    return s_a + s_s - correlations.shannon(spectra.reshape(b - a, -1, 4))


def min_t_nm_scan(channel, count: int, grid: np.ndarray, seed: int = 0):
    """Minimum mutual-information backflow onset over Haar-random pure states.

    Returns (min onset time, argmin state vector, per-state onset times with
    NaN for states showing no backflow). The argmin onset is refined by
    bisection to ONSET_REFINE_TOL; the rest are grid-resolution values. A
    state's onset is its first step that rises by more than SCAN_MARGIN. I(t)
    cannot rise across a step whose intermediate map is CP (data processing),
    so the states are only evaluated at the ends of steps whose smallest Choi
    eigenvalue is <= 0 or that have no intermediate map. The states are
    grouped as in mi_series, and each thread scans its group in chunks of at
    most CHUNK_TIMES times (and at least two, as in mi_series), folded into
    the per-state first rises as they are computed: the scan holds
    O(chunk + N) memory for N states, not the (points, N) series. A chunk
    runs only on the states of its group without a rise so far, so a state
    leaves the stack after the chunk that holds its first rise, and a group
    ends once every state in it has one.

    Each evolved state is sum_r c_r(t) G_r, as in mi_series (see
    `_mi_setup`). The scanned points are cut into blocks of BASIS_TIMES from
    the first, whatever the chunks and the threads, and no chunk crosses the
    end of a block. Per block each state's G_r are rotated once into the
    eigenbasis of its joint matrix at the block's middle point, so
    `jacobi_eigvalsh4` starts from matrices near diagonal: on criterion 06's
    Haar states it takes at most 2 sweeps, where the computational basis took
    3 or 4. `mi_series` keeps the unrotated G_r: the rotation keeps the
    eigenvalues' absolute accuracy but not the relative accuracy of the small
    ones of near-pure X states, which `gadc_epsilon_scan` needs.

    SCAN_MARGIN is 1e-12 rather than the generic ONSET_MARGIN of
    scan_backflow, 1e-10: the earliest-onset states are nearly product states
    whose mutual information tops out around 1e-4 .. 1e-6, so an absolute
    1e-10 threshold would systematically delay their detected onsets, while
    1e-12 still sits two decades above the arithmetic noise of the scan: the
    rotated MI was within 1.2e-15 of `mi_series` at the scanned points of 200
    Haar states, and within 7.8e-15 over all of [0, 3] (the worst at the pure
    t = 0).
    """
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
        raise ConfigParseError(f"count must be an integer >= 1, got {count!r}")
    grid = _check_grid(grid)
    vectors = sample_pure_vectors((2, 2), count, seed)
    steps = np.flatnonzero(_non_cp_steps(channel, grid))
    if steps.size == 0:
        return float("nan"), None, np.full(count, np.nan)
    points = np.union1d(steps, steps + 1)
    # starts[j]: (points[j], points[j + 1]) is a non-CP step.
    starts = np.isin(points, steps)
    coords, terms, traces, s_a = _mi_setup(channel, vectors, grid[points])
    first = np.full(count, points.size)  # each state's first rising step

    def fold(lo, hi):
        # Each chunk runs on the group's states without a rise so far, after their
        # values at the previous chunk's last point, so the seam's step is seen.
        chunk = max(2, min(CHUNK_TIMES, CHUNK_MATRICES // (hi - lo)))
        live = np.arange(lo, hi)
        # take and compress copy in C order, so that _combine reshapes views;
        # an index on axis 1 would put the states axis first in memory.
        for block_lo, block_hi in chunk_indices(points.size, BASIS_TIMES):
            joint = _block_basis(coords, (block_lo + block_hi) // 2, terms.take(live, axis=1))
            side = traces.take(live, axis=1)
            for a, b in chunk_indices(block_hi - block_lo, chunk):
                a, b = a + block_lo, b + block_lo
                mi = _chunk_mi(coords, a, b, joint, side, s_a[live])
                if a:
                    a, mi = a - 1, np.concatenate((carry[None], mi))
                at = np.flatnonzero(starts[a:b - 1])
                if at.size:
                    rising = mi[at + 1] - mi[at] > SCAN_MARGIN
                    hit = rising.any(axis=0)
                    if hit.any():
                        first[live[hit]] = a + at[rising[:, hit].argmax(axis=0)]
                        live, mi = live[~hit], mi[:, ~hit]
                        if not live.size:
                            return
                        joint, side = joint.compress(~hit, axis=1), side.compress(~hit, axis=1)
                carry = mi[-1].copy()  # a view would keep the whole chunk alive
            del joint, side  # before the next block's are built

    _in_groups(fold, count, None)
    found = first < points.size
    idx = points[np.where(found, first, 0)]
    onsets = np.where(found, grid[idx], np.nan)
    if np.all(np.isnan(onsets)):
        return float("nan"), None, onsets
    best = int(np.nanargmin(onsets))
    # The dense Trajectory MI, not mi_series: a two-time call costs about a quarter as much.
    traj = Trajectory(np.outer(vectors[best], vectors[best].conj()), channel, (2, 2), grid)
    refined = _refine_onset(lambda ts: traj.measure_series(correlations.mutual_information, ts),
                            grid, int(idx[best]))
    return float(refined), vectors[best], onsets


# ---------------------------------------------------------------------------
# GADC scan over weakly entangled probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsilonScanResult:
    eps: float
    interval: tuple[float, float] | None
    mi_max: float
    precision_loss: bool


def gadc_epsilon_scan(eps_list: Sequence[float],
                      grid: np.ndarray | None = None) -> list[EpsilonScanResult]:
    """Mutual-information increase intervals of sqrt(1-eps^2)|00> + eps|11>
    under the two-parameter generalized amplitude damping, per eps.

    The increase margin scales with the eps^2 signal size, with a floor of
    1e-14. On the default grid eps >= 3e-6 resolves the interval; below that
    the rises can sit under the floor. The precision-loss flag, with a
    PrecisionLossWarning, marks a whole signal within 1e3 machine epsilons of
    zero, and a scan that finds no interval while the margin sits at its
    floor. One `mi_series` call scans the states of every eps as one stack.
    """
    grid = _check_grid(np.arange(0.10, 0.35 + 1e-12, 2.5e-4) if grid is None else grid)
    eps_arr = np.asarray(eps_list, dtype=float)
    if not np.all((0.0 <= eps_arr) & (eps_arr <= 1.0)):  # also rejects NaN
        raise ConfigParseError(f"eps must lie in [0, 1], got {eps_list}")
    if not eps_arr.size:
        return []
    vecs = np.zeros((eps_arr.size, 4), dtype=complex)
    vecs[:, 0] = np.sqrt(1.0 - eps_arr * eps_arr)
    vecs[:, 3] = eps_arr
    series = mi_series(GadcChannel(), vecs, grid, workers=1)
    results = []
    for eps, column in zip(eps_arr.tolist(), series.T):
        mi_max = float(np.max(column))
        margin = max(1e-14, 1e-4 * eps * eps * float(np.mean(np.diff(grid))) / 1e-3)
        raw = _increase_intervals(grid, column, margin)
        interval = (raw[0][0], raw[-1][1]) if raw else None
        loss = mi_max < 1e3 * EPS_MACHINE or (interval is None and margin == 1e-14)
        if loss:
            warnings.warn(f"eps = {eps}: mutual-information rises lost in rounding "
                          f"(max {mi_max:.3g})", PrecisionLossWarning)
        results.append(EpsilonScanResult(eps=eps, interval=interval, mi_max=mi_max,
                                         precision_loss=loss))
    return results


# ---------------------------------------------------------------------------
# Mutual-information rate Hessian at stationary states
# ---------------------------------------------------------------------------

def _contraction_rates(gx, gy, gz) -> np.ndarray:
    # Decay rate c_i of coordinate a_{i_A, i_S} in the convention of the
    # closed-form Hessian spectrum: a system Pauli index contracts at the
    # pairwise rate sum, the identity not at all. Shape (..., 15).
    per_pauli = np.stack(np.broadcast_arrays(0.0, gy + gz, gx + gz, gx + gy), axis=-1)
    return np.tile(per_pauli, 4)[..., 1:]


def _entropy_hessian(lam: np.ndarray, da: np.ndarray) -> np.ndarray:
    # Hessian of the entropy -Tr(A ln A) in the directions da (p, n, n) at the
    # diagonal A = diag(lam), lam (..., n) > 0: the Daleckii-Krein sum
    # H_ij = Re sum_kl F_kl da_i[k, l] conj(da_j[k, l]) with F_kl the divided
    # difference -ln(lam_k / lam_l) / (lam_k - lam_l) of S'(x) = -ln x - 1,
    # and S''(lam_l) = -1 / lam_l where the gap is exactly 0. Shape (..., p, p).
    lam_l = lam[..., None, :]
    gap = lam[..., :, None] - lam_l
    same = gap == 0.0
    big_f = np.where(same, -1.0 / lam_l, -np.log1p(gap / lam_l) / np.where(same, 1.0, gap))
    flat = da.reshape(len(da), -1)
    scaled = flat * big_f.reshape(big_f.shape[:-2] + (1, -1))
    return np.real(scaled @ flat.conj().T)


def mi_rate_hessian(gx, gy, gz, a12) -> np.ndarray:
    """Numeric Hessian (15 x 15) of d/dt I at the stationary state
    rho = 1/4 (1 (x) 1) + a12 (sigma_z (x) 1), |a12| < 1/4, over the 15
    traceless coordinates. The arguments broadcast against each other; the
    result has shape (..., 15, 15). An a12 outside the open interval (NaN
    included) raises BoundaryStateError.

    The derivative convention matches the closed-form spectrum: coordinates
    contract as da_i/ds = -c_i a_i with c_i the pairwise rate sum of the
    system Pauli factor. Since the base point is stationary, the Hessian of
    d/dt I = -sum_i c_i a_i dI/da_i reduces to
    H_jk = -(c_j + c_k) d2I/da_j da_k, needing only second derivatives of I.
    rho and both marginals are diagonal, so each entropy Hessian is the
    Daleckii-Krein sum over their known spectra, with no eigendecomposition.
    """
    a12 = np.asarray(a12, dtype=float)
    if not np.all(np.abs(a12) < 0.25):  # also rejects NaN
        raise BoundaryStateError(f"a12 must lie in (-1/4, 1/4), got {a12}")
    paulis = np.array(PAULIS)
    # The 16 Pauli products sigma_i (x) sigma_j, the second factor varying fastest.
    e = np.einsum("iab,jcd->ijacbd", paulis, paulis).reshape(16, 4, 4)
    # rho = diag(1/4 + a12 (1, 1, -1, -1)).
    h_joint = _entropy_hessian(0.25 + a12[..., None] * np.array([1.0, 1.0, -1.0, -1.0]), e[1:])

    # The system marginal 1/2 depends on coordinates 1..3, the ancilla marginal
    # 1/2 + 2 a12 sigma_z on 4, 8, 12; all other coordinate derivatives vanish.
    da_s = np.zeros((15, 2, 2), dtype=complex)
    da_s[:3] = 2.0 * paulis[1:]
    h_s = _entropy_hessian(np.full(2, 0.5), da_s)

    da_a = np.zeros((15, 2, 2), dtype=complex)
    da_a[[3, 7, 11]] = 2.0 * paulis[1:]
    h_a = _entropy_hessian(0.5 + 2.0 * a12[..., None] * np.array([1.0, -1.0]), da_a)

    h_mi = h_a + h_s - h_joint
    c = _contraction_rates(gx, gy, gz)
    return -(c[..., :, None] + c[..., None, :]) * h_mi


def hessian_eigs_closed(gx: float, gy: float, gz: float, a12: float) -> np.ndarray:
    """The nine nonzero Hessian eigenvalues of d/dt I at interior stationary
    states (|a12| < 1/4); the remaining six are structural zeros.

    Three eigenvalues are 32 (gamma_j + gamma_k) (16 a12^2 + 1)/(16 a12^2 - 1)
    and six are -8 (gamma_j + gamma_k) atanh(4 a12)/a12 (two per pair; the
    ratio's limit at a12 = 0 is 4), all nonpositive exactly when the pairwise
    rate sums are nonnegative.
    """
    if not abs(a12) < 0.25:  # also rejects NaN
        raise BoundaryStateError(f"a12 must lie in (-1/4, 1/4), got {a12}")
    q = (16.0 * a12 * a12 + 1.0) / (16.0 * a12 * a12 - 1.0)
    t = float(np.arctanh(4.0 * a12) / a12) if a12 != 0.0 else 4.0
    pairs = (gy + gz, gx + gz, gx + gy)
    vals = [32.0 * p * q for p in pairs]
    for p in pairs:
        vals.extend([-8.0 * p * t, -8.0 * p * t])
    return np.array(vals)
