import threading
import warnings
from collections import Counter
from typing import Sequence

import numpy as np
import pytest

from helpers import (NOT_STATES, bell_weights, dense_min_choi_eig, near_product_rate,
                     random_density, trace_distance)
from nmflow import correlations, qmat, witness
from nmflow.channels import (
    ConstantRate,
    GadcChannel,
    RateChannel,
    TabulatedRate,
    apply_map,
    channel_from_json,
    dephasing,
    depolarizing,
    quasi_eternal,
)
from nmflow.correlations import mutual_information, negativity
from nmflow.divisibility import min_choi_eig
from nmflow.errors import (
    BoundaryStateError,
    ConfigParseError,
    DimMismatchError,
    NeverBreakingError,
    NmflowError,
    NotAStateError,
    UnphysicalError,
)
from nmflow.numutil import bisect_root, chunk_indices
from nmflow.qmat import DensityState, maximally_entangled
from nmflow.witness import (
    Trajectory,
    find_t_eb,
    gadc_epsilon_scan,
    hessian_eigs_closed,
    mi_rate_hessian,
    min_t_nm_scan,
    phi_plus_mi,
    phi_plus_negativity,
    sample_pure_vectors,
    scan_backflow,
    series_backflow,
)


class ZeroVectorError(NmflowError, ValueError):
    """Coordinate vector is identically zero."""


def sample_pure(dims: Sequence[int], count: int, seed: int) -> list[DensityState]:
    """Haar-random pure DensityStates (see sample_pure_vectors)."""
    dims = tuple(int(x) for x in dims)
    vecs = sample_pure_vectors(dims, count, seed)
    return [DensityState(np.outer(v, v.conj()), dims) for v in vecs]


def zero_space_lambda_deriv(a1: float, a2: float, a3: float,
                            gx: float, gy: float, gz: float) -> float:
    """Time derivative of the coordinate length sqrt(a1^2 + a2^2 + a3^2) in
    the Hessian zero eigenspace: nonpositive whenever the pairwise rate sums
    are nonnegative."""
    norm_sq = a1 * a1 + a2 * a2 + a3 * a3
    if norm_sq == 0.0:
        raise ZeroVectorError("coordinate vector is zero")
    num = a1 * a1 * (gz + gy) + a2 * a2 * (gx + gz) + a3 * a3 * (gx + gy)
    return -num / float(np.sqrt(norm_sq))


def unital_witness_state(phi_vec, p: float) -> DensityState:
    """Correlated mixing state (1/2)|0><0| (x) (p|phi><phi| + (1-p) 1/2)
    + (1/2)|1><1| (x) (p|phi_perp><phi_perp| + (1-p) 1/2): both reduced states
    are maximally mixed, and it lies in the image of any bijective unital
    qubit evolution for small enough p."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"need 0 < p < 1, got {p}")
    v = np.asarray(phi_vec, dtype=complex).ravel()
    if v.shape != (2,):
        raise ValueError("phi must be a qubit state vector")
    v = v / np.linalg.norm(v)
    v_perp = np.array([-np.conj(v[1]), np.conj(v[0])])
    eye2 = np.eye(2, dtype=complex)
    block0 = p * np.outer(v, v.conj()) + (1.0 - p) * eye2 / 2.0
    block1 = p * np.outer(v_perp, v_perp.conj()) + (1.0 - p) * eye2 / 2.0
    full = 0.5 * (np.kron(np.diag([1.0, 0.0]), block0) + np.kron(np.diag([0.0, 1.0]), block1))
    return DensityState(full, (2, 2))


def force_complex_path(monkeypatch):
    # A 1e-300j part in the superoperator rows moves no value but makes the
    # MI scans and Trajectory take their complex path.
    monkeypatch.setattr(witness, "_PAULI_SUPEROP", witness._PAULI_SUPEROP + 1e-300j)


def mi_measure(m, dims):
    return mutual_information(m, dims)


def neg_measure(m, dims):
    return negativity(m, dims)


def test_scan_backflow_eternal_empty():
    traj = Trajectory(maximally_entangled(2), quasi_eternal(1.0, 0.0), (2, 2),
                      np.arange(0.0, 6.0, 5e-3))
    report = scan_backflow(mi_measure, traj)
    assert not report.intervals
    assert report.onsets == ()


def test_scan_backflow_mi_onset_landmark():
    traj = Trajectory(maximally_entangled(2), quasi_eternal(0.4, 1.0), (2, 2),
                      np.arange(0.0, 4.0, 2e-3))
    report = scan_backflow(mi_measure, traj)
    assert report.intervals
    assert report.onsets[0] == pytest.approx(2.741, abs=5e-3)


def test_scan_backflow_negativity_eb_empty():
    traj = Trajectory(maximally_entangled(2), quasi_eternal(0.4, 2.0), (2, 2),
                      np.arange(0.0, 6.0, 5e-3))
    report = scan_backflow(neg_measure, traj)
    assert not report.intervals


TABULATED_DEPHASING = dephasing(TabulatedRate(((0.0, 1.0), (5.0, -0.3))))


@pytest.mark.parametrize("channel, grid", [
    (TABULATED_DEPHASING, np.arange(0.0, 5.0, 4e-3)),
    (quasi_eternal(0.4, 1.0), np.arange(0.0, 4.0, 2e-3)),
    (quasi_eternal(0.4, 1.0), np.arange(0.0, 4.0, 0.1)),
])
def test_series_backflow_of_the_closed_form_matches_scan_backflow(channel, grid):
    # The tabulated rate turns negative at 5/1.3, where MI starts to rise. The
    # closed form gives the same intervals, and onsets within the bisection
    # tolerance.
    traj = Trajectory(maximally_entangled(2), channel, (2, 2), grid)
    report = scan_backflow(mi_measure, traj)
    assert report.intervals
    closed = series_backflow(grid, phi_plus_mi(channel, grid), lambda t: phi_plus_mi(channel, t))
    assert closed.intervals == report.intervals
    assert closed.onsets == pytest.approx(report.onsets, abs=witness.ONSET_REFINE_TOL)


def test_series_backflow_onset_at_the_grid_start():
    grid = np.linspace(0.0, 1.0, 11)
    report = series_backflow(grid, grid ** 2, lambda t: t * t)
    assert report.onsets == (0.0,) and report.intervals == ((0.0, 1.0),)


# An amplitude damping whose G falls and revives; with p = 1/2 it shifts no
# Bloch vector, a Pauli channel with lambdas (G, G, G^2).
REVIVAL_G = [[0, 1], [1, 0.4], [2, 0.7], [3, 0.1]]

PHI_PLUS_CHANNELS = {
    "quasi_eternal": quasi_eternal(0.4, 1.0),
    "dephasing": dephasing(0.7),
    "depolarizing": depolarizing(0.3),
    "tabulated dephasing": TABULATED_DEPHASING,
    "anisotropic": RateChannel(ConstantRate(0.1), ConstantRate(0.3), ConstantRate(0.2)),
    "unital amp_damp": channel_from_json({"family": "amp_damp", "p": 0.5, "G": REVIVAL_G}),
}


@pytest.mark.parametrize("complex_path", [False, True])
@pytest.mark.parametrize("name", PHI_PLUS_CHANNELS)
def test_phi_plus_closed_forms_match_dense(monkeypatch, name, complex_path):
    channel = PHI_PLUS_CHANNELS[name]
    if complex_path:
        force_complex_path(monkeypatch)
    real_calls = []
    real = witness._real_representatives
    monkeypatch.setattr(witness, "_real_representatives",
                        lambda v: real_calls.append(len(v)) or real(v))
    grid = np.arange(0.0, 5.0, 0.01)
    phi_vec = np.array([[1.0, 0.0, 0.0, 1.0]]) / np.sqrt(2.0)
    mi, neg = phi_plus_mi(channel, grid), phi_plus_negativity(channel, grid)
    series = witness.mi_series(channel, phi_vec, grid, workers=1)[:, 0]
    assert bool(real_calls) == (not complex_path and name != "anisotropic")
    traj = Trajectory(maximally_entangled(2), channel, (2, 2), grid)
    for closed, dense in ((mi, series), (mi, traj.measure_series(mutual_information, grid)),
                          (neg, traj.measure_series(negativity, grid))):
        np.testing.assert_allclose(closed, dense, rtol=0, atol=1e-13)
    for k in (0, 137, grid.size - 1):
        assert phi_plus_mi(channel, float(grid[k])) == pytest.approx(mi[k], abs=1e-15)
        assert phi_plus_negativity(channel, float(grid[k])) == pytest.approx(neg[k], abs=1e-15)


def test_find_t_eb_under_a_unital_amp_damp_map():
    # phi+ stays entangled while (1 + G)^2 / 4 > 1/2, and G = 1 - 0.6 t
    # reaches sqrt(2) - 1 at t = (2 - sqrt(2)) / 0.6.
    channel = PHI_PLUS_CHANNELS["unital amp_damp"]
    assert find_t_eb(channel, tol=1e-7) == pytest.approx((2.0 - np.sqrt(2.0)) / 0.6, abs=1e-6)


@pytest.mark.parametrize("channel", [
    GadcChannel(), channel_from_json({"family": "amp_damp", "p": 0.3, "G": [[0, 1], [2, 0.4]]}),
], ids=["gadc", "amp_damp"])
def test_phi_plus_closed_forms_reject_a_bloch_shift(channel):
    # A shifted phi+ is not Bell-diagonal: a typed error, not a missing attribute.
    grid = np.arange(0.0, 3.0, 0.01)
    for run in (lambda: phi_plus_mi(channel, grid), lambda: phi_plus_negativity(channel, grid),
                lambda: find_t_eb(channel)):
        with pytest.raises(ConfigParseError, match="unital"):
            run()


def mp_pauli_weights(mp, ix, iy, iz) -> list:
    """(p_0, p_x, p_y, p_z) of a Pauli channel from its rate integrals int_0^t gamma_k."""
    ayz, azx, axy = mp.exp(-2 * (iy + iz)), mp.exp(-2 * (iz + ix)), mp.exp(-2 * (ix + iy))
    return [(1 + axy + azx + ayz) / 4, (1 - axy - azx + ayz) / 4,
            (1 - axy + azx - ayz) / 4, (1 + axy - azx - ayz) / 4]


def mp_quasi_eternal_weights(mp, alpha: float, t0: float, t: float) -> list:
    a, t0, t = mp.mpf(alpha), mp.mpf(t0), mp.mpf(t)
    iz = a / 2 * (mp.log(mp.cosh(t0)) - mp.log(mp.cosh(t - t0)))
    return mp_pauli_weights(mp, a * t / 2, a * t / 2, iz)


def mp_shannon(mp, weights):
    return -mp.fsum(w * mp.log(w) for w in weights if w > 0)


def test_phi_plus_closed_forms_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    times = np.array([0.0, 0.3, 1.4676, 2.741, 3.9])
    with mpmath.workdps(40):
        # The tabulated dephasing rate 1 - 0.26 t integrates to t - 0.13 t^2,
        # and dephasing halves it on gamma_z.
        weights = {
            "quasi_eternal": [mp_quasi_eternal_weights(mpmath, 0.4, 1.0, t) for t in times],
            "tabulated dephasing": [
                mp_pauli_weights(mpmath, 0, 0, (mpmath.mpf(t) - mpmath.mpf("0.13") * t * t) / 2)
                for t in times]}
        for name, ws in weights.items():
            channel = PHI_PLUS_CHANNELS[name]
            mi = [float(2 * mpmath.log(2) - mp_shannon(mpmath, w)) for w in ws]
            neg = [float(max(mpmath.mpf(0), max(w) - mpmath.mpf(1) / 2)) for w in ws]
            np.testing.assert_allclose(phi_plus_mi(channel, times), mi, rtol=0, atol=1e-15)
            np.testing.assert_allclose(phi_plus_negativity(channel, times), neg, rtol=0,
                                       atol=1e-15)
            for t, m, n in zip(times, mi, neg):
                assert phi_plus_mi(channel, float(t)) == pytest.approx(m, abs=1e-15)
                assert phi_plus_negativity(channel, float(t)) == pytest.approx(n, abs=1e-15)


def mp_gadc_probe_mi(mp, eps: float, t: float):
    """MI of a|00> + b|11>, a = sqrt(1 - eps^2) and b = eps, with GADC on the
    second qubit.

    In Pauli coordinates c_ij = Tr[rho s_i (x) s_j] the map keeps c_30 = a^2 - b^2,
    sends c_03 -> r c_03 + w c_00 and c_33 -> r c_33 + w c_30 with the Bloch shift
    w = (2s - 1)(1 - r), and scales the |00><11| coherence a b to a b sqrt(r).
    The result is an X state: diagonal |01>, |10> and one 2x2 block.
    """
    e, t = mp.mpf(eps), mp.mpf(t)
    s, r = mp.cos(5 * t) ** 2, mp.exp(-t)
    c30 = 1 - 2 * e * e
    w = (2 * s - 1) * (1 - r)
    c03, c33 = r * c30 + w, r + w * c30
    d00, d01 = (1 + c30 + c03 + c33) / 4, (1 + c30 - c03 - c33) / 4
    d10, d11 = (1 - c30 + c03 - c33) / 4, (1 - c30 - c03 + c33) / 4
    mean = (d00 + d11) / 2
    half = mp.sqrt(((d00 - d11) / 2) ** 2 + (1 - e * e) * e * e * r)
    return (mp_shannon(mp, [(1 + c30) / 2, (1 - c30) / 2])
            + mp_shannon(mp, [(1 + c03) / 2, (1 - c03) / 2])
            - mp_shannon(mp, [d01, d10, mean + half, mean - half]))


@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5, 1e-6])
def test_gadc_probe_mi_against_mpmath(eps):
    # Joint eigenvalues of these near-pure states cross 1e-14 on the grid; a
    # floor that drops them costs ~3e-13 there.
    mpmath = pytest.importorskip("mpmath")
    grid = np.arange(0.10, 0.35 + 1e-12, 2.5e-4)
    vec = np.array([[np.sqrt(1.0 - eps * eps), 0.0, 0.0, eps]])
    series = witness.mi_series(GadcChannel(), vec, grid, workers=1)[:, 0]
    with mpmath.workdps(40):
        exact = [float(mp_gadc_probe_mi(mpmath, eps, t)) for t in grid]
    np.testing.assert_allclose(series, exact, rtol=0, atol=1e-14)


def mp_pauli_mi(mp, vec: np.ndarray, weights: list):
    """MI of the pure state vec with the Pauli channel of the given weights on
    the second qubit, from 40-digit spectra."""
    paulis = [mp.matrix(np.asarray(p).tolist()) for p in qmat.PAULIS]
    v = mp.matrix([mp.mpc(complex(x)) for x in vec])
    v = v / mp.sqrt(mp.fsum(abs(x) ** 2 for x in v))
    rho = mp.zeros(4, 4)
    for p, pauli in zip(weights, paulis):
        u = mp.zeros(4, 4)
        for i in range(4):
            for j in range(4):
                if i // 2 == j // 2:
                    u[i, j] = pauli[i % 2, j % 2]
        rho += p * (u * v) * (u * v).H
    rho_a = mp.matrix([[rho[0, 0] + rho[1, 1], rho[0, 2] + rho[1, 3]],
                       [rho[2, 0] + rho[3, 1], rho[2, 2] + rho[3, 3]]])
    rho_s = mp.matrix([[rho[0, 0] + rho[2, 2], rho[0, 1] + rho[2, 3]],
                       [rho[1, 0] + rho[3, 2], rho[1, 1] + rho[3, 3]]])
    return sum(sign * mp_shannon(mp, mp.eighe(m, eigvals_only=True))
               for sign, m in ((1, rho_a), (1, rho_s), (-1, rho)))


def test_schmidt_tail_mi_against_mpmath():
    # Near-product states with Schmidt coefficient 1e-6: joint eigenvalues of
    # ~1e-14 early on, where a 1e-14 floor cost up to 5e-13, and reduced
    # states with an eigenvalue of 1e-12 that 1 - r would leave ~1e-16 off.
    from helpers import random_unitary
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(15)
    channel = quasi_eternal(0.4, 1.0)
    grid = np.linspace(0.0, 0.2, 21)
    with mpmath.workdps(40):
        weights = [mp_quasi_eternal_weights(mpmath, 0.4, 1.0, t) for t in grid]
        for _ in range(6):
            local = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            vec = local @ np.array([np.sqrt(1.0 - 1e-12), 0.0, 0.0, 1e-6])
            exact = [float(mp_pauli_mi(mpmath, vec, w)) for w in weights]
            series = witness.mi_series(channel, vec[None], grid, workers=1)[:, 0]
            dense = Trajectory(np.outer(vec, vec.conj()), channel, (2, 2),
                               grid).measure_series(mutual_information, grid)
            np.testing.assert_allclose(series, exact, rtol=0, atol=1e-14)
            np.testing.assert_allclose(dense, exact, rtol=0, atol=1e-14)


def test_find_t_eb_quasi_eternal():
    assert find_t_eb(quasi_eternal(0.4, 2.0), tol=1e-3) == pytest.approx(1.47, abs=1e-2)


def test_find_t_eb_agrees_with_weight_route():
    # Independent route: the evolved maximally entangled pair is diagonal in
    # the Bell basis with the channel's mixing weights, so the negativity
    # vanishes exactly where the identity weight p_0 crosses 1/2.
    from nmflow.numutil import bisect_root
    ch = quasi_eternal(0.4, 2.0)
    t_matrix = find_t_eb(ch, tol=1e-6)
    t_weights = bisect_root(lambda t: bell_weights(ch, t)[0] - 0.5, 1.0, 2.0, tol=1e-8)
    assert t_matrix == pytest.approx(t_weights, abs=1e-5)


def test_gadc_window_boundary_matches_choi_route():
    # The edges of the first non-CP window can be located either from the
    # closed-form rate gamma_minus or from the minimum Choi eigenvalue of
    # short intermediate maps; both must agree.
    from nmflow.channels import GadcChannel
    from nmflow.divisibility import min_choi_eig
    from nmflow.numutil import bisect_root
    gadc = GadcChannel()
    dt = 1e-6

    def min_eig(t):
        return min_choi_eig(gadc.intermediate(t, t + dt))

    rate_root = bisect_root(lambda t: gadc.rates(t)[0], 0.05, 0.2, tol=1e-7)
    choi_root = bisect_root(min_eig, 0.05, 0.2, tol=1e-7)
    assert choi_root == pytest.approx(rate_root, abs=1e-4)


@pytest.mark.parametrize("bad", [0.0, -1e-3, float("nan"), float("inf")])
def test_tolerances_reject_bad_values(bad):
    ch = quasi_eternal(0.4, 2.0)
    with pytest.raises(ConfigParseError):
        find_t_eb(ch, tol=bad)
    with pytest.raises(ConfigParseError):
        find_t_eb(ch, t_max=bad)


def test_bisections_stop_at_adjacent_floats():
    # A tolerance below the spacing of doubles near the root still ends
    # both bisections.
    ch = quasi_eternal(0.4, 2.0)
    assert find_t_eb(ch, tol=1e-300) == pytest.approx(find_t_eb(ch, tol=1e-9), abs=1e-8)
    # Near t = 1e12 adjacent doubles lie 1.2e-4 apart, more than
    # ONSET_REFINE_TOL, and t +- 1e-5 rounds to t, so the onset's difference
    # quotient reads 0 throughout: the bracket [t_2, t_4] closes from below
    # until it holds two adjacent floats.
    grid = 1e12 + np.arange(8.0)
    assert np.spacing(grid[4]) > witness.ONSET_REFINE_TOL
    report = series_backflow(grid, (grid - grid[3]) ** 2, lambda t: (t - grid[3]) ** 2)
    assert report.intervals == ((grid[3], grid[-1]),)
    assert grid[4] - 2 * np.spacing(grid[4]) <= report.onsets[0] <= grid[4]


def test_find_t_eb_never_breaking():
    identity_channel = RateChannel(ConstantRate(0.0), ConstantRate(0.0), ConstantRate(0.0))
    with pytest.raises(NeverBreakingError):
        find_t_eb(identity_channel, t_max=5.0)


def test_find_t_eb_names_the_first_negative_weight_whatever_the_t_max():
    # t0 = 0 lies below the physicality threshold ~0.769: the time that the
    # error names is where a weight first goes negative, not where it is lowest.
    messages = set()
    for t_max in (200.0, 1000.0):
        with pytest.raises(UnphysicalError) as err:
            find_t_eb(quasi_eternal(0.4, 0.0), t_max=t_max)
        messages.add(str(err.value))
    assert messages == {"mixing weight -1.470e-04 < 0 at t = 0.05: channel not CPTP"}


def find_t_eb_loop(channel, tol: float = 1e-3, t_max: float = 20.0) -> float:
    """Per-point oracle for find_t_eb: one apply_map and dense negativity per
    coarse step."""
    phi = maximally_entangled(2)
    coarse = witness.EB_COARSE

    def neg(t):
        return negativity(apply_map(channel.as_affine(t), phi, (2, 2), subsystem=1), (2, 2))

    t_prev, n_prev = 0.0, neg(0.0)
    t = coarse
    while t <= t_max + 1e-12:
        n_t = neg(t)
        if n_t <= witness.EB_FLOOR:
            if n_prev <= witness.EB_FLOOR:
                return t_prev
            return bisect_root(lambda s: neg(s) - witness.EB_FLOOR, t_prev, t, tol=tol)
        t_prev, n_prev = t, n_t
        t += coarse
    raise NeverBreakingError(f"negativity still {n_prev:.3e} at t = {t_max}")


@pytest.mark.parametrize("alpha, t0", [(0.4, 2.0), (0.4, 1.0), (1.0, 0.5)])
def test_find_t_eb_matches_per_point_scan(alpha, t0):
    ch = quasi_eternal(alpha, t0)
    for tol in (1e-3, 1e-9):
        assert find_t_eb(ch, tol=tol) == find_t_eb_loop(ch, tol=tol)


def test_find_t_eb_matches_per_point_scan_past_the_first_stack():
    # Visibility e^{-0.06 t} reaches 1/3 at t_EB = ln(3)/0.02 ~ 54.93, past
    # 1024 coarse points: the accumulated points stay those of the oracle.
    ch = depolarizing(ConstantRate(0.005))
    for tol in (1e-3, 1e-9):
        t_eb = find_t_eb(ch, tol=tol, t_max=80.0)
        assert t_eb > 1024 * witness.EB_COARSE
        assert t_eb == find_t_eb_loop(ch, tol=tol, t_max=80.0)
    assert t_eb == pytest.approx(np.log(3.0) / 0.02, abs=1e-6)
    # t_max / EB_COARSE rounds to 1280.99...: t_EB = t_max - 0.02 lies in the
    # last coarse cell, which ends at the 1281st accumulated point.
    t_max = 1281 * 0.05
    ch = depolarizing(ConstantRate(np.log(3.0) / (4.0 * (t_max - 0.02))))
    assert find_t_eb(ch, tol=1e-9, t_max=t_max) == find_t_eb_loop(ch, tol=1e-9, t_max=t_max)
    assert find_t_eb(ch, tol=1e-9, t_max=t_max) == pytest.approx(t_max - 0.02, abs=1e-8)


def test_find_t_eb_never_breaking_over_several_stacks():
    identity_channel = RateChannel(ConstantRate(0.0), ConstantRate(0.0), ConstantRate(0.0))
    t_max = 2.5 * 1024 * 0.05
    with pytest.raises(NeverBreakingError, match="negativity still 5.000e-01"):
        find_t_eb(identity_channel, t_max=t_max)
    with pytest.raises(NeverBreakingError):
        find_t_eb_loop(identity_channel, t_max=t_max)


def test_find_t_eb_bounds_the_coarse_scan_before_allocating(monkeypatch):
    # t_max = 5000 is EB_MAX_POINTS coarse points; past it nothing is evaluated.
    ch = quasi_eternal(0.4, 2.0)
    assert find_t_eb(ch, t_max=witness.EB_MAX_POINTS * witness.EB_COARSE) == find_t_eb(ch)

    def never(*args, **kwargs):
        raise AssertionError("coarse scan allocated")

    monkeypatch.setattr(np, "full", never)
    for t_max in (5000.1, 1e300):
        with pytest.raises(ConfigParseError, match=f"exceeds {witness.EB_MAX_POINTS}"):
            find_t_eb(ch, t_max=t_max)


def test_find_t_eb_stops_at_the_crossing(monkeypatch):
    # The coarse scan evaluates chunks of the accumulated points until one
    # holds the crossing: a t_max-5000 call evaluates the first 64 of its
    # 100000 points and returns what one scan over all of them returns.
    ch = quasi_eternal(0.4, 2.0)
    negativity, sizes = witness.phi_plus_negativity, []

    def counted(channel, t):
        sizes.append(np.size(t))
        return negativity(channel, t)

    monkeypatch.setattr(witness, "phi_plus_negativity", counted)
    t_eb = find_t_eb(ch, t_max=5000.0)
    assert sizes[0] == witness.EB_CHUNK and sum(sizes) < 100
    monkeypatch.setattr(witness, "EB_CHUNK", witness.EB_MAX_POINTS + 1)
    sizes.clear()
    assert find_t_eb(ch, t_max=5000.0) == t_eb
    assert sizes[0] == witness.EB_MAX_POINTS
    # A crossing past the first chunks, and one past t_max, as one full scan finds them.
    late = depolarizing(ConstantRate(0.005))
    for t_max in (80.0, 50.0):
        monkeypatch.setattr(witness, "EB_CHUNK", 64)
        try:
            chunked = find_t_eb(late, t_max=t_max)
        except NeverBreakingError as err:
            chunked = str(err)
        monkeypatch.setattr(witness, "EB_CHUNK", witness.EB_MAX_POINTS + 1)
        try:
            full = find_t_eb(late, t_max=t_max)
        except NeverBreakingError as err:
            full = str(err)
        assert chunked == full


def test_find_t_eb_depolarizing_oracle():
    # Isotropic visibility e^{-2t} hits the separability threshold 1/3 at ln(3)/2.
    from nmflow.channels import depolarizing
    ch = depolarizing(ConstantRate(0.5))
    assert ch.as_affine(1.0).lambdas[0] == pytest.approx(np.exp(-2.0), rel=1e-12)
    assert find_t_eb(ch, tol=1e-4) == pytest.approx(np.log(3.0) / 2.0, abs=5e-4)


def test_sample_pure_properties():
    states = sample_pure((2, 2), 50, seed=5)
    for st in states:
        assert float(np.real(np.trace(st.matrix @ st.matrix))) == pytest.approx(1.0, abs=1e-12)
    again = sample_pure((2, 2), 50, seed=5)
    for a, b in zip(states, again):
        assert np.array_equal(a.matrix, b.matrix)
    other = sample_pure((2, 2), 50, seed=6)
    assert not np.array_equal(states[0].matrix, other[0].matrix)


def test_sample_pure_mean_reduced_purity():
    # Haar average of Tr(rho_A^2) for 2x2 bipartite pure states is
    # (d_A + d_B)/(d_A d_B + 1) = 0.8; checked by Monte Carlo convergence.
    vecs = sample_pure_vectors((2, 2), 10_000, seed=123)
    psi = vecs.reshape(-1, 2, 2)
    rho_a = np.einsum("nij,nkj->nik", psi, psi.conj())
    purity = np.real(np.einsum("nik,nki->n", rho_a, rho_a))
    assert float(purity.mean()) == pytest.approx(0.8, abs=0.01)


def test_min_t_nm_scan_small():
    ch = quasi_eternal(0.4, 1.0)
    grid = np.arange(0.0, 3.0 + 1e-12, 4e-3)
    onset, state, onsets = min_t_nm_scan(ch, 300, grid, seed=11)
    assert 2.0 < onset <= 2.741 + 0.01
    assert np.all(np.isnan(onsets) | (onsets >= 2.0))
    assert state is not None


def test_min_t_nm_scan_eternal_no_onset():
    ch = quasi_eternal(1.0, 0.0)
    grid = np.arange(0.0, 5.0 + 1e-12, 5e-3)
    onset, state, onsets = min_t_nm_scan(ch, 100, grid, seed=3)
    assert np.isnan(onset)
    assert state is None
    assert np.all(np.isnan(onsets))


def test_mi_series_matches_generic_application(monkeypatch):
    # The vectorized superoperator scan (real or complex, including the affine
    # translation) agrees with applying the map to the full matrix, on random
    # states and on the fragile regimes: near-product states with Schmidt
    # tails 1e-9 and 1e-6, phi+ (degenerate rho_S) and product states
    # (singular marginal).
    from helpers import random_pure_vector, random_unitary
    from nmflow.channels import apply_map
    real_calls = []
    real = witness._real_representatives
    monkeypatch.setattr(witness, "_real_representatives",
                        lambda v: real_calls.append(len(v)) or real(v))
    rng = np.random.default_rng(60)
    gadc = GadcChannel()
    ch_ru = quasi_eternal(0.4, 1.0)
    anisotropic = RateChannel(ConstantRate(0.1), ConstantRate(0.3), ConstantRate(0.2))
    grid = np.array([0.0, 0.15, 0.4, 1.1, 2.5])
    for channel in (gadc, ch_ru, dephasing(0.3), depolarizing(0.3), anisotropic):
        vectors = [random_pure_vector(rng, 4) for _ in range(5)]
        vectors.append(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
        for tail in (1e-9, 1e-6, 0.0):
            local = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            vectors.append(local @ np.array([np.sqrt(1.0 - tail * tail), 0.0, 0.0, tail]))
        real_calls.clear()
        for v in vectors:
            series = witness.mi_series(channel, v[None, :], grid, workers=1)[:, 0]
            rho0 = np.outer(v, v.conj())
            for k, t in enumerate(grid):
                direct = mutual_information(
                    apply_map(channel.as_affine(float(t)), rho0, (2, 2)), (2, 2))
                assert series[k] == pytest.approx(direct, abs=1e-11)
        # gamma_x != gamma_y breaks the rotation symmetry: complex path only.
        assert len(real_calls) == (0 if channel is anisotropic else len(vectors))


SINGULAR_AMP_DAMP = {"family": "amp_damp", "p": 0.3, "G": [[0, 1], [1, 0], [2, 0.5], [3, 0]]}


def _first_onset_indices(series: np.ndarray, margin: float) -> np.ndarray:
    # series (T, N): first index i per column with series[i+1]-series[i] > margin.
    rising = np.diff(series, axis=0) > margin
    first = rising.argmax(axis=0).astype(float)
    first[~rising.any(axis=0)] = np.nan
    return first


@pytest.mark.parametrize("channel, grid, count, seed, evaluated", [
    (quasi_eternal(0.4, 1.0), np.arange(0.0, 3.0 + 1e-12, 2e-3), 300, 24, 1000),
    (GadcChannel(), np.arange(0.0, 0.6 + 1e-12, 2e-3), 200, 7, 202),
    (dephasing(0.3), np.arange(0.0, 3.0 + 1e-12, 1e-2), 100, 3, 300),
    # r(t) = e^-t underflows to 0 past t ~ 745, where GADC has no intermediate
    # map, so every step is evaluated.
    (GadcChannel(), np.arange(744.0, 747.5 + 1e-12, 1e-2), 100, 5, 350),
    # G reaches 0 at t = 1: the step leaving it has no intermediate map, and
    # the other 59 steps are judged by their own maps (19 non-CP, G rising).
    (channel_from_json(SINGULAR_AMP_DAMP), np.linspace(0.0, 3.0, 61), 100, 11, 20),
])
def test_min_t_nm_scan_skips_only_cp_steps(monkeypatch, channel, grid, count, seed, evaluated):
    # Skipping the steps with a strictly CP intermediate map gives the onsets
    # of the full-grid scan. GADC on [0, 0.6] alternates CP and non-CP
    # stretches; dephasing sits on the CP boundary, whose smallest Choi
    # eigenvalue is exactly 0, so none of its steps is skipped. The scan folds
    # its chunks one by one, so the chunk sizes put seams inside non-CP steps
    # and, for GADC, on pairs of points that are not a step.
    non_cp = witness._non_cp_steps(channel, grid)
    assert np.count_nonzero(non_cp) == evaluated
    if isinstance(channel, GadcChannel) and grid[0] < 1.0:
        assert np.count_nonzero(np.diff(non_cp.astype(int))) >= 3
    vectors = sample_pure_vectors((2, 2), count, seed)
    idx = _first_onset_indices(witness.mi_series(channel, vectors, grid), witness.SCAN_MARGIN)
    expected = np.where(np.isnan(idx), np.nan, grid[np.nan_to_num(idx).astype(int)])
    # The last pair: fewer matrices per chunk than states, one time per chunk.
    for chunk_times, chunk_matrices in ((1, 2 ** 15), (2, 2 ** 15), (7, 2 ** 15),
                                        (128, 2 ** 15), (128, 50)):
        monkeypatch.setattr(witness, "CHUNK_TIMES", chunk_times)
        monkeypatch.setattr(witness, "CHUNK_MATRICES", chunk_matrices)
        onset, state, onsets = min_t_nm_scan(channel, count, grid, seed=seed)
        np.testing.assert_array_equal(onsets, expected)
        if np.all(np.isnan(expected)):
            assert np.isnan(onset) and state is None
        else:
            assert abs(onset - np.nanmin(onsets)) <= grid[1] - grid[0] + 1e-12


@pytest.mark.parametrize("seed", [0, 1, 24, 301])
def test_min_t_nm_scan_diagonalizes_within_two_sweeps(monkeypatch, seed):
    # Each block's per-state eigenbasis leaves the Jacobi kernel matrices
    # near diagonal at every point of the block: two sweeps suffice on the
    # criterion-06 setting, where the computational basis needed 3 or 4.
    monkeypatch.setattr(qmat, "JACOBI_MAX_SWEEPS", 2)
    grid = np.arange(0.0, 3.0 + 1e-12, 2e-3)
    onset, state, onsets = min_t_nm_scan(quasi_eternal(0.4, 1.0), 100, grid, seed=seed)
    assert 2.0 < onset < 3.0 and state is not None


def _near_product_vectors(mus, thetas):
    # sqrt(1 - mu)|0>|n> + sqrt(mu) e^{i phi}|1>|n_perp>, with the system's n
    # at polar angle theta: z-aligned (theta = 0) and tilted near-product
    # states, whose MI stays within a few decades of SCAN_MARGIN.
    rows = []
    for mu in mus:
        for k, theta in enumerate(thetas):
            n = np.array([np.cos(theta / 2.0), np.sin(theta / 2.0)])
            n_perp = np.array([-n[1], n[0]])
            rows.append(np.concatenate((np.sqrt(1.0 - mu) * n,
                                        np.sqrt(mu) * np.exp(0.7j * k) * n_perp)))
    return np.array(rows)


FRAGILE_SCANS = {
    "near-product": (quasi_eternal(0.4, 1.0), np.arange(0.0, 3.0 + 1e-12, 1e-2),
                     _near_product_vectors((1e-6, 1e-9), (0.0, 0.05, 0.4, 1.2))),
    "gadc haar": (GadcChannel(), np.arange(0.0, 0.6 + 1e-12, 2e-3),
                  sample_pure_vectors((2, 2), 12, seed=40)),
    "complex path": (quasi_eternal(0.4, 1.0), np.arange(0.0, 3.0 + 1e-12, 1e-2),
                     np.concatenate((_near_product_vectors((1e-6,), (0.0, 0.4)),
                                     sample_pure_vectors((2, 2), 6, seed=41)))),
}


@pytest.mark.parametrize("name", FRAGILE_SCANS)
def test_min_t_nm_scan_matches_the_unrotated_series_on_fragile_states(monkeypatch, name):
    # The block-rotated scan finds every onset that the unrotated mi_series
    # gives under SCAN_MARGIN, on near-product states, on GADC's
    # alternating CP and non-CP stretches and on the complex path, for every
    # chunk setting and thread count.
    channel, grid, vectors = FRAGILE_SCANS[name]
    if name == "complex path":
        force_complex_path(monkeypatch)
    monkeypatch.setattr(witness, "sample_pure_vectors", lambda dims, count, seed: vectors)
    idx = _first_onset_indices(witness.mi_series(channel, vectors, grid), witness.SCAN_MARGIN)
    expected = np.where(np.isnan(idx), np.nan, grid[np.nan_to_num(idx).astype(int)])
    assert not np.all(np.isnan(expected))
    for threads in (1, 2, 3):
        monkeypatch.setattr(witness, "thread_count", lambda: threads)
        for chunk_times, chunk_matrices in ((1, 2 ** 15), (2, 2 ** 15), (7, 2 ** 15),
                                            (128, 2 ** 15), (128, 50)):
            monkeypatch.setattr(witness, "CHUNK_TIMES", chunk_times)
            monkeypatch.setattr(witness, "CHUNK_MATRICES", chunk_matrices)
            onsets = min_t_nm_scan(channel, len(vectors), grid)[2]
            np.testing.assert_array_equal(onsets, expected,
                                          err_msg=f"{threads}, {chunk_times}, {chunk_matrices}")


def test_non_cp_steps_isolate_a_step_without_intermediate_map():
    # One singular step used to mark every step of the grid non-CP.
    channel, grid = channel_from_json(SINGULAR_AMP_DAMP), np.linspace(0.0, 3.0, 61)
    with pytest.raises(NmflowError):
        channel.intermediate(grid[20], grid[21])
    non_cp = witness._non_cp_steps(channel, grid)
    np.testing.assert_array_equal(np.flatnonzero(non_cp), np.arange(20, 40))
    regular = np.delete(np.arange(60), 20)
    cp = min_choi_eig(channel.intermediate(grid[regular], grid[regular + 1])) > 0.0
    np.testing.assert_array_equal(non_cp[regular], ~cp)


NON_CP_FAMILIES = {
    "quasi_eternal": quasi_eternal(0.4, 1.0),
    "tabulated dephasing": TABULATED_DEPHASING,
    "dephasing": dephasing(0.3),
    "gadc": GadcChannel(),
    "amp_damp": channel_from_json({"family": "amp_damp", "p": 0.3, "G": REVIVAL_G}),
}


@pytest.mark.parametrize("name", NON_CP_FAMILIES)
def test_non_cp_steps_match_the_dense_choi_spectrum(name):
    # The closed-form smallest Choi eigenvalue marks the same steps as the
    # dense spectrum, the exact zeros of the CP boundary included.
    channel, grid = NON_CP_FAMILIES[name], np.linspace(0.0, 3.0, 1501)
    dense = ~(dense_min_choi_eig(channel.intermediate(grid[:-1], grid[1:])) > 0.0)
    np.testing.assert_array_equal(witness._non_cp_steps(channel, grid), dense)


def test_min_t_nm_scan_cp_channels(monkeypatch):
    grid = np.arange(0.0, 3.0 + 1e-12, 1e-2)
    # Dephasing: every step on the CP boundary, evaluated, no onset. The
    # counts show that the functions stubbed below are the scan's own.
    monkeypatch.setenv("NMFLOW_THREADS", "1")
    calls = Counter()
    for name in ("_apply_superops", "_block_basis", "_chunk_mi"):
        monkeypatch.setattr(witness, name, lambda *a, f=getattr(witness, name), name=name:
                            calls.update([name]) or f(*a))
    onset, state, onsets = min_t_nm_scan(dephasing(0.3), 50, grid, seed=4)
    assert np.isnan(onset) and state is None and np.all(np.isnan(onsets))
    assert calls == {"_apply_superops": 1, "_block_basis": 3, "_chunk_mi": 3}
    # Depolarizing: every step strictly CP, so no state is evaluated at all.
    monkeypatch.setattr(witness, "_apply_superops", lambda *a: pytest.fail("a state evolved"))
    monkeypatch.setattr(witness, "_block_basis", lambda *a: pytest.fail("a basis built"))
    monkeypatch.setattr(witness, "_chunk_mi", lambda *a: pytest.fail("a state evaluated"))
    onset, state, onsets = min_t_nm_scan(depolarizing(0.3), 50, grid, seed=4)
    assert np.isnan(onset) and state is None
    assert onsets.shape == (50,) and np.all(np.isnan(onsets))


def test_min_t_nm_scan_memory_does_not_grow_with_points(monkeypatch):
    # The scan folds each chunk into its onsets as it is computed, so its peak
    # depends on the chunk size and the state count, not on the number of
    # grid points. Traced peaks for 1000 states on 301 and 1501 points: 7.4
    # and 7.4 MB with one thread, 13.2 and 13.6 MB with two (a chunk of 2^14
    # matrices per thread); 34.7 and 41.3 MB (one thread), 55.7 and 74.1 MB
    # (two) when the whole (points, states) series was held. The first scan of
    # a process also allocates ~2 MB once, so a small scan runs before the
    # traced ones.
    import tracemalloc
    monkeypatch.setenv("NMFLOW_THREADS", "1")
    channel = quasi_eternal(0.4, 1.0)
    min_t_nm_scan(channel, 10, np.linspace(0.0, 3.0, 31))
    peaks = []
    for points in (301, 1501):
        tracemalloc.start()
        try:
            min_t_nm_scan(channel, 1000, np.linspace(0.0, 3.0, points))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]
    assert peaks[1] < 12e6


def test_mi_series_independent_of_workers_and_chunks(monkeypatch):
    vectors = witness.sample_pure_vectors((2, 2), 60, seed=5)
    grid = np.arange(0.0, 3.0, 0.01)
    for channel in (quasi_eternal(0.4, 1.0), GadcChannel()):
        ref = witness.mi_series(channel, vectors, grid, workers=1)
        for workers in (1, 2):
            for chunk in (1, 7, 128):  # times per chunk
                monkeypatch.setattr(witness, "CHUNK_MATRICES", chunk * len(vectors))
                got = witness.mi_series(channel, vectors, grid, workers=workers)
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)


def test_mi_series_takes_the_ancilla_entropy_once_per_state(monkeypatch):
    # 1 (x) Lambda_t leaves rho_A as it is: every chunk gets the S(rho_A) of
    # its states from the initial vectors, the same bits in every chunk.
    seen = []
    mi = witness._chunk_mi
    monkeypatch.setattr(witness, "_chunk_mi", lambda coords, a, b, joint, side, s_a:
                        seen.append(s_a) or mi(coords, a, b, joint, side, s_a))
    monkeypatch.setattr(witness, "CHUNK_MATRICES", 7 * 30)
    vectors = sample_pure_vectors((2, 2), 30, seed=16)
    grid = np.linspace(0.0, 3.0, 40)
    rho = np.einsum("na,nb->nab", vectors, vectors.conj())
    expected = correlations.entropy(qmat.partial_trace(rho, (2, 2), keep=0))
    for channel in (quasi_eternal(0.4, 1.0), GadcChannel(),
                    RateChannel(ConstantRate(0.1), ConstantRate(0.4), ConstantRate(0.25))):
        seen.clear()
        series = witness.mi_series(channel, vectors, grid, workers=1)
        assert len(seen) == 6
        for s_a in seen:
            assert np.array_equal(s_a, seen[0])
        np.testing.assert_allclose(seen[0], expected, rtol=0, atol=1e-14)
        dense = mutual_information(np.stack([apply_map(channel.as_affine(float(t)), rho[3],
                                                       (2, 2)) for t in grid]), (2, 2))
        np.testing.assert_allclose(series[:, 3], dense, rtol=0, atol=1e-14)


def test_min_t_nm_scan_independent_of_thread_count(monkeypatch):
    grid = np.arange(0.0, 3.0 + 1e-12, 0.01)
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("NMFLOW_THREADS", threads)
        runs.append(witness.min_t_nm_scan(quasi_eternal(0.4, 1.0), 80, grid, seed=6))
    (onset1, vec1, onsets1), (onset2, vec2, onsets2) = runs
    np.testing.assert_array_equal(onsets1, onsets2)
    assert onset1 == onset2
    np.testing.assert_array_equal(vec1, vec2)


@pytest.mark.parametrize("count", [1, 5, 10, 61])
def test_mi_scans_give_the_same_bits_for_any_worker_count(monkeypatch, count):
    # Each thread takes a contiguous group of states: 10 and 61 states split
    # unevenly over 3 and 7 workers, and 1 and 5 states are fewer than 7, so
    # some workers get no group. The small chunk caps put several chunks in
    # every group.
    monkeypatch.setattr(witness, "CHUNK_MATRICES", 7 * count)
    monkeypatch.setattr(witness, "CHUNK_TIMES", 16)
    vectors = sample_pure_vectors((2, 2), count, seed=31)
    anisotropic = RateChannel(ConstantRate(0.1), ConstantRate(0.4), ConstantRate(0.25))
    scans = [(quasi_eternal(0.4, 1.0), np.arange(0.0, 3.0 + 1e-12, 0.01)),
             (GadcChannel(), np.arange(0.0, 0.6 + 1e-12, 2e-3))]
    runs = {}
    for workers in (1, 2, 3, 7):
        monkeypatch.setattr(witness, "thread_count", lambda: workers)
        for k, (channel, grid) in enumerate(scans):
            onset, state, onsets = min_t_nm_scan(channel, count, grid, seed=32)
            state = np.zeros(0) if state is None else state
            runs[workers, "scan", k] = np.concatenate(([onset], onsets, state))
        for k, channel in enumerate([anisotropic] + [channel for channel, _ in scans]):
            runs[workers, "series", k] = witness.mi_series(channel, vectors, scans[0][1],
                                                           workers=workers)
    for (workers, kind, k), got in runs.items():
        assert got.tobytes() == runs[1, kind, k].tobytes(), (workers, kind, k)


@pytest.mark.parametrize("channel", [
    quasi_eternal(0.4, 1.0), GadcChannel(), dephasing(TabulatedRate(((0.0, 1.0), (2.0, -0.3)))),
    channel_from_json(SINGULAR_AMP_DAMP), depolarizing(lambda t: 0.3),
], ids=["quasi_eternal", "gadc", "tabulated dephasing", "amp_damp", "callable rate"])
def test_scans_return_empty_series_for_no_times_or_no_states(channel):
    # Each driver that evolves states returns an empty series of the right
    # shape for zero times or zero states, never an error from inside.
    none, grid = np.array([]), np.linspace(0.0, 3.0, 7)
    vectors = sample_pure_vectors((2, 2), 3, seed=1)
    assert witness.mi_series(channel, vectors, none).shape == (0, 3)
    assert witness.mi_series(channel, np.empty((0, 4)), grid).shape == (7, 0)
    assert witness.mi_series(channel, np.empty((0, 4)), none, workers=2).shape == (0, 0)
    traj = Trajectory(maximally_entangled(2), channel, (2, 2), grid)
    assert traj.measure_series(mutual_information, none).shape == (0,)
    if hasattr(channel, "probs"):
        assert phi_plus_mi(channel, none).shape == (0,)
        assert phi_plus_negativity(channel, none).shape == (0,)


@pytest.mark.parametrize("complex_path", [False, True])
@pytest.mark.parametrize("times", [[], [0.5], [1.3, 0.5]], ids=["0", "1", "2"])
@pytest.mark.parametrize("channel", [
    quasi_eternal(0.4, 1.0), GadcChannel(),
    RateChannel(ConstantRate(0.1), ConstantRate(0.4), ConstantRate(0.25)),
], ids=["quasi_eternal", "gadc", "anisotropic"])
def test_short_grids_match_the_dense_reference(monkeypatch, channel, times, complex_path):
    # A one-time product borrows a neighbouring row, which a one-point grid
    # does not have, and a zero-point grid has no row at all. The states and
    # the MI match one apply_map per time, and a time's values are the bits
    # it gets inside a longer grid.
    if complex_path:
        force_complex_path(monkeypatch)
    times = np.array(times)
    vectors = sample_pure_vectors((2, 2), 4, seed=70)
    series = witness.mi_series(channel, vectors, times, workers=1)
    assert series.shape == (times.size, 4)
    longer = np.array([0.2, 0.5, 0.9, 1.3])
    np.testing.assert_array_equal(series, witness.mi_series(channel, vectors, longer, workers=1)[
        np.searchsorted(longer, times)])
    for v, column in zip(vectors, series.T):
        rho = np.outer(v, v.conj())
        dense = np.array([apply_map(channel.as_affine(float(t)), rho, (2, 2)) for t in times])
        expected = [mutual_information(m, (2, 2)) for m in dense]
        np.testing.assert_allclose(column, expected, rtol=0, atol=1e-14)
        traj = Trajectory(rho, channel, (2, 2), longer)
        stacks = []
        mi = traj.measure_series(lambda m, dims: stacks.append(m) or mutual_information(m, dims),
                                 times)
        assert stacks[0].shape == (times.size, 4, 4)
        np.testing.assert_allclose(stacks[0], dense.reshape(-1, 4, 4), rtol=0, atol=1e-15)
        np.testing.assert_allclose(mi, expected, rtol=0, atol=1e-14)
        traj.measure_series(lambda m, dims: stacks.append(m) or np.zeros(len(m)), longer)
        np.testing.assert_array_equal(stacks[0], stacks[1][np.searchsorted(longer, times)])


@pytest.mark.parametrize("complex_path", [False, True])
@pytest.mark.parametrize("channel, grid", [
    (quasi_eternal(0.4, 1.0), np.arange(0.0, 3.0, 0.01)),
    (GadcChannel(), np.arange(0.0, 0.6, 2e-3)),
])
def test_mi_kernel_gives_a_state_the_same_bits_in_any_stack(monkeypatch, channel, grid,
                                                             complex_path):
    # mi_series cuts its states into a group per thread and its times into
    # chunks, so its series holds only if a state's values do not depend on
    # the states that share its stack: every subset gets exactly the full
    # stack's terms, and gives exactly its columns, chunk by chunk.
    if complex_path:
        force_complex_path(monkeypatch)
    real_calls = []
    real = witness._real_representatives
    monkeypatch.setattr(witness, "_real_representatives",
                        lambda v: real_calls.append(len(v)) or real(v))
    vectors = sample_pure_vectors((2, 2), 200, seed=12)
    full = witness.mi_series(channel, vectors, grid, workers=1)
    assert bool(real_calls) != complex_path
    coords, joint, side, s_a = witness._mi_setup(channel, vectors, grid)
    rng = np.random.default_rng(13)
    # Chunks of CHUNK_TIMES times, or fewer when the 200 states would exceed
    # CHUNK_MATRICES.
    per_chunk = min(witness.CHUNK_TIMES, witness.CHUNK_MATRICES // 200)
    bounds = [(lo, min(lo + per_chunk, grid.size)) for lo in range(0, grid.size, per_chunk)]
    assert len(bounds) >= 3
    for size in (1, 2, 5, 190):
        cols = np.sort(rng.choice(200, size, replace=False))
        sub = witness._mi_setup(channel, vectors[cols], grid)
        for got, whole in zip(sub, (coords, joint[:, cols], side[:, cols], s_a[cols])):
            assert np.array_equal(got, whole)
        for lo, hi in bounds:
            got = witness._chunk_mi(coords, lo, hi, sub[1], sub[2], sub[3])
            assert np.array_equal(got, full[lo:hi, cols])


@pytest.mark.parametrize("complex_path", [False, True])
@pytest.mark.parametrize("channel, grid", [
    (quasi_eternal(0.4, 1.0), np.arange(0.0, 3.0, 0.01)),
    (GadcChannel(), np.arange(0.0, 0.6, 2e-3)),
])
def test_scan_blocks_give_a_state_the_same_bits_in_any_stack_and_chunk(monkeypatch, channel,
                                                                       grid, complex_path):
    # min_t_nm_scan's value of a state at a point depends on that state and
    # the point's block alone: a subset of the states gets exactly the full
    # stack's rotated terms, and every chunk of a block gives exactly the rows
    # and columns of the whole block, one-point chunks included (those borrow
    # a neighbouring row, the last point's from the left).
    if complex_path:
        force_complex_path(monkeypatch)
    vectors = sample_pure_vectors((2, 2), 200, seed=12)
    coords, terms, traces, s_a = witness._mi_setup(channel, vectors, grid)
    assert np.iscomplexobj(terms) == complex_path
    # 1, the three lambdas and, for GADC, the z translation.
    assert coords.shape == (grid.size, 5 if isinstance(channel, GadcChannel) else 4)
    rng = np.random.default_rng(13)
    blocks = list(chunk_indices(grid.size, witness.BASIS_TIMES))
    assert len(blocks) >= 3 and blocks[-1][1] == grid.size
    for lo, hi in blocks:
        mid = (lo + hi) // 2
        joint = witness._block_basis(coords, mid, terms.copy())
        full = witness._chunk_mi(coords, lo, hi, joint, traces, s_a)
        for size in (1, 2, 5, 190):
            cols = np.sort(rng.choice(200, size, replace=False))
            _, sub_terms, sub_side, _ = witness._mi_setup(channel, vectors[cols], grid)
            assert np.array_equal(sub_terms, terms[:, cols])
            assert np.array_equal(sub_side, traces[:, cols])
            sub = witness._block_basis(coords, mid, sub_terms)
            assert np.array_equal(sub, joint[:, cols])
            for a, b in ((lo, lo + 1), (lo + 1, lo + 3), (mid, mid + 1), (lo + 3, hi - 1),
                         (hi - 1, hi)):
                got = witness._chunk_mi(coords, a, b, sub, sub_side, s_a[cols])
                assert np.array_equal(got, full[a - lo:b - lo, cols]), (a, b, size)


@pytest.mark.parametrize("complex_path", [False, True])
def test_combine_gives_the_same_bits_in_any_row_pieces(monkeypatch, complex_path):
    # _combine runs its products on row pieces small enough for OpenBLAS to
    # keep on the calling thread. Pieces of two rows, pieces whose last one
    # has one row (it takes its left neighbour again) and one piece give the
    # same bits, one-column products (a borrowed row of coords) included, and
    # so does the whole series of mi_series.
    if complex_path:
        force_complex_path(monkeypatch)
    vectors = sample_pure_vectors((2, 2), 37, seed=19)
    grid = np.linspace(0.0, 3.0, 50)
    coords, joint, side, _ = witness._mi_setup(quasi_eternal(0.4, 1.0), vectors, grid)
    assert len(joint.reshape(-1, coords.shape[1])) % 2 == 0
    assert len(side.reshape(-1, coords.shape[1])) % 2 == 1
    chunks = ((0, 50), (3, 4), (49, 50), (10, 17))
    monkeypatch.setattr(witness, "_BLAS_ONE_THREAD", 10 ** 9)
    whole = [witness._combine(coords, a, b, terms) for a, b in chunks for terms in (joint, side)]
    ref = witness.mi_series(quasi_eternal(0.4, 1.0), vectors, grid, workers=1)
    for limit in (1, 5 * 50 * coords.shape[1]):
        monkeypatch.setattr(witness, "_BLAS_ONE_THREAD", limit)
        pieces = [witness._combine(coords, a, b, terms) for a, b in chunks
                  for terms in (joint, side)]
        for got, want in zip(pieces, whole):
            assert np.array_equal(got, want)
        got = witness.mi_series(quasi_eternal(0.4, 1.0), vectors, grid, workers=1)
        assert np.array_equal(got, ref)


def test_min_t_nm_scan_frees_the_terms_of_found_states(monkeypatch):
    # A group keeps the terms G_r of its live states only: once a state is
    # found, the next block's basis starts from a copy of the live states'
    # terms, and the setup's array of every state's terms is freed.
    import weakref
    monkeypatch.setenv("NMFLOW_THREADS", "1")
    setup, basis = witness._mi_setup, witness._block_basis
    setup_terms, blocks = [], []

    def capture(*args):
        out = setup(*args)
        setup_terms.append(weakref.ref(out[1]))
        return out

    monkeypatch.setattr(witness, "_mi_setup", capture)
    monkeypatch.setattr(witness, "_block_basis", lambda coords, mid, terms: blocks.append(
        (terms.shape[1], setup_terms[0]() is not None)) or basis(coords, mid, terms))
    count = 300
    min_t_nm_scan(quasi_eternal(0.4, 1.0), count, np.arange(0.0, 3.0 + 1e-12, 2e-3), seed=5)
    shrunk = [i for i, (states, _) in enumerate(blocks) if states < count]
    assert blocks[0] == (count, True) and shrunk and len(blocks) >= 3
    assert all(held for _, held in blocks[:shrunk[0]])
    assert not any(held for _, held in blocks[shrunk[0]:])
    assert setup_terms[0]() is None


def _scan_groups(monkeypatch, channel, count, grid, seed):
    # Runs min_t_nm_scan and returns each state's onset step f, the step
    # (points[f], points[f + 1]); the chunks of each group of states as
    # (first point, number of points, states), in chunk order; and the number
    # of points. A state is named by its S(rho_A) in the chunk's arguments,
    # distinct for Haar states. On the way it checks the blocks: a chunk lies
    # inside one block of BASIS_TIMES points from the first, and a group builds
    # each block's basis once, at the block's middle point, right before the
    # block's first chunk and on the states of that chunk.
    setup, basis, chunk_mi = witness._mi_setup, witness._block_basis, witness._chunk_mi
    seen, calls = [], {}

    def log(*entry):
        calls.setdefault(threading.get_ident(), []).append(entry)

    monkeypatch.setattr(witness, "_mi_setup",
                        lambda *args: seen.append((args[2], setup(*args))) or seen[-1][1])
    monkeypatch.setattr(witness, "_block_basis", lambda coords, mid, terms: log(
        "basis", mid, terms.shape[1], None) or basis(coords, mid, terms))
    monkeypatch.setattr(witness, "_chunk_mi", lambda coords, a, b, joint, side, s_a: log(
        "chunk", a, b, s_a) or chunk_mi(coords, a, b, joint, side, s_a))
    onsets = min_t_nm_scan(channel, count, grid, seed=seed)[2]
    assert not np.any(np.isnan(onsets))
    [(times, (_, _, _, s_a))] = seen
    name = {value: i for i, value in enumerate(s_a.tolist())}
    assert len(name) == count
    groups, group_of, size = [], {}, witness.BASIS_TIMES
    for entries in calls.values():  # one thread makes a group's calls, in chunk order
        for kind, a, b, values in entries:
            if kind == "basis":
                block = (a, b)  # its middle point and its number of states
                continue
            states = [name[v] for v in values.tolist()]
            if states[0] not in group_of:  # a group's first chunk holds all its states
                assert not any(i in group_of for i in states)
                assert states == list(range(states[0], states[0] + len(states)))
                group_of.update((i, len(groups)) for i in states)
                groups.append([])
            group = groups[group_of[states[0]]]
            assert {group_of[i] for i in states} == {group_of[states[0]]}
            assert a == (group[-1][0] + group[-1][1] if group else 0)
            lo = a - a % size
            hi = min(lo + size, times.size)
            assert b <= hi and block[0] == (lo + hi) // 2
            if a == lo:
                assert block[1] == len(states)
                block = (block[0], None)  # one basis per block
            group.append((a, b - a, states))
    assert sorted(group_of) == list(range(count))
    bases = sum(entry[0] == "basis" for entries in calls.values() for entry in entries)
    assert bases == sum(a % size == 0 for group in groups for a, _, _ in group)
    return np.searchsorted(times, onsets), groups, times.size


@pytest.mark.parametrize("threads, chunk_times", [("1", 1), ("1", 7), ("1", 128), ("2", 7)])
def test_min_t_nm_scan_drops_found_states_from_the_stack(monkeypatch, threads, chunk_times):
    # Each thread scans a group of states, and each chunk runs on the states
    # of the group without a rise in the chunks before it: a state leaves the
    # stack right after the chunk that holds its onset step, so the stack
    # never grows. Once every state of a group has an onset no chunk of it runs.
    monkeypatch.setenv("NMFLOW_THREADS", threads)
    monkeypatch.setattr(witness, "CHUNK_TIMES", chunk_times)
    grid = np.arange(0.0, 3.0 + 1e-12, 2e-3)
    first, groups, points = _scan_groups(monkeypatch, quasi_eternal(0.4, 1.0), 300, grid, 24)
    assert len(groups) == witness.thread_count()
    for group in groups:
        assert group[-1][0] + group[-1][1] < points  # the last chunks do not run
        lens = [len(states) for _, _, states in group]
        assert lens == sorted(lens, reverse=True)
        members = np.array(group[0][2])
        los = [lo for lo, _, _ in group]
        # The chunk holding the onset step sees its end point, with the start
        # carried in front of it when the step crosses a seam.
        onset_chunk = np.searchsorted(los, first[members] + 1, side="right") - 1
        assert len(group) == onset_chunk.max() + 1
        for c, (_, _, states) in enumerate(group):
            assert states == members[onset_chunk >= c].tolist()
        chunk = max(2, min(chunk_times, witness.CHUNK_MATRICES // len(members)))
        # Chunks of `chunk` points (at least two), cut short only at the end of a block.
        bounds = [(lo + a, lo + b) for lo, hi in chunk_indices(points, witness.BASIS_TIMES)
                  for a, b in chunk_indices(hi - lo, chunk)]
        assert [(lo, lo + size) for lo, size, _ in group] == bounds[:len(group)]
        assert max(size for _, size, _ in group) <= chunk


def test_min_t_nm_scan_evaluates_no_state_past_its_onset_chunk_with_two_threads(monkeypatch):
    # With several threads a found state leaves its group's stack as with one:
    # a state is evaluated in its onset step's chunk and the chunks before it,
    # in no other.
    monkeypatch.setattr(witness, "thread_count", lambda: 2)
    monkeypatch.setattr(witness, "CHUNK_TIMES", 7)
    grid = np.arange(0.0, 3.0 + 1e-12, 2e-3)
    channel = quasi_eternal(0.4, 1.0)
    idx = _first_onset_indices(witness.mi_series(channel, sample_pure_vectors((2, 2), 301, 25),
                                                 grid), witness.SCAN_MARGIN)
    first, groups, points = _scan_groups(monkeypatch, channel, 301, grid, 25)
    assert np.array_equal(first + grid.size - points, idx)  # every step past t0 = 1 is non-CP
    assert [len(group[0][2]) for group in groups] in ([151, 150], [150, 151])
    for group in groups:
        los = np.array([lo for lo, _, _ in group])
        runs = Counter(i for _, _, states in group for i in states)
        for i, n in runs.items():
            assert n == np.searchsorted(los, first[i] + 1, side="right")


def test_trajectory_grid_validation():
    with pytest.raises(ValueError):
        witness.Trajectory(maximally_entangled(2), quasi_eternal(0.4, 1.0), (2, 2),
                           np.array([0.0, 0.5, 0.5]))


@pytest.mark.parametrize("grid", [
    [0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [-np.inf, 0.0], [0.0, 0.5, 0.5], [1.0, 0.0],
    [0.0], [[0.0, 1.0]], [-0.5, 0.0, 1.0], [-1e-300, 1.0],
])
def test_trajectory_rejects_bad_grids(grid):
    # min_t_nm_scan and gadc_epsilon_scan share the Trajectory's grid check.
    # Before t = 0 no map of the family exists, and `_non_cp_steps` would take
    # every step there as non-CP.
    with pytest.raises(ConfigParseError):
        Trajectory(maximally_entangled(2), quasi_eternal(0.4, 1.0), (2, 2), np.array(grid))
    with pytest.raises(ConfigParseError):
        min_t_nm_scan(quasi_eternal(0.4, 1.0), 2, np.array(grid))
    with pytest.raises(ConfigParseError):
        gadc_epsilon_scan([1e-3], grid=np.array(grid))


def test_measure_series_rejects_bad_times():
    # Before t = 0 the family is not CPTP: at -1.0 and -0.5 the "states" gave
    # MI 2.56 and 1.79, above the 2 ln 2 of any two-qubit state. A (1, 2)
    # array came back as a flat series.
    traj = Trajectory(maximally_entangled(2), quasi_eternal(0.4, 1.0), (2, 2),
                      np.arange(0.0, 1.0, 0.1))
    for times in ([-1.0, -0.5, 0.5], [[0.2, 0.4]], [0.1, np.nan], [np.inf], 0.5):
        with pytest.raises(ConfigParseError):
            traj.measure_series(mi_measure, np.array(times))
    # The times need not increase: onset refinement passes [t + d, t - d].
    up, down = (traj.measure_series(mi_measure, np.array(ts)) for ts in ([0.3, 0.5], [0.5, 0.3]))
    np.testing.assert_array_equal(up, down[::-1])


@pytest.mark.parametrize("count", [0, -1, 2.5, True])
def test_min_t_nm_scan_rejects_bad_counts(count):
    with pytest.raises(ConfigParseError):
        min_t_nm_scan(quasi_eternal(0.4, 1.0), count, np.arange(0.0, 1.0, 0.1))


def test_mi_series_rejects_bad_input(monkeypatch):
    ch, grid, vecs = quasi_eternal(0.4, 1.0), np.arange(0.0, 1.0, 0.1), np.eye(4)[:2]
    for shape in ((3, 3), (4,), (2, 2, 4)):
        with pytest.raises(DimMismatchError):
            witness.mi_series(ch, np.ones(shape) / 2.0, grid)
    with pytest.raises(ConfigParseError):
        witness.mi_series(ch, vecs, np.array([0.0, np.nan]))
    with pytest.raises(ConfigParseError):
        witness.mi_series(ch, np.full((2, 4), np.nan), grid)
    # No map exists before t = 0, and a grid of another shape has no time order.
    for bad in (np.array([-0.1, 0.5]), grid.reshape(5, 2), np.array(0.5)):
        with pytest.raises(ConfigParseError):
            witness.mi_series(ch, vecs, bad)
    # The input is checked before any group of states goes to a thread.
    monkeypatch.setattr(witness, "parallel_map", lambda *a: pytest.fail("a group ran"))
    with pytest.raises(DimMismatchError):
        witness.mi_series(ch, np.ones((3, 3)) / 2.0, grid, workers=1)
    with pytest.raises(ConfigParseError):
        witness.mi_series(ch, vecs, np.array([0.0, np.inf]), workers=2)


@pytest.mark.parametrize("scale", [3.0, 0.0, 1.0 + 1e-9])
def test_mi_series_rejects_vectors_off_the_unit_sphere(scale):
    # A scaled vector gave a negative mutual information, a zero row NaN.
    vectors = sample_pure_vectors((2, 2), 3, seed=5)
    vectors[1] *= scale
    with pytest.raises(NotAStateError, match="unit norm"):
        witness.mi_series(quasi_eternal(0.4, 1.0), vectors, [0.0, 1.0, 2.0])
    vectors[1] = sample_pure_vectors((2, 2), 3, seed=5)[1] * (1.0 + 1e-12)
    assert np.all(witness.mi_series(quasi_eternal(0.4, 1.0), vectors, [0.0, 1.0, 2.0]) >= 0.0)


def test_min_t_nm_scan_rejects_vectors_off_the_unit_sphere(monkeypatch):
    sample = witness.sample_pure_vectors
    monkeypatch.setattr(witness, "sample_pure_vectors", lambda *args: 3.0 * sample(*args))
    with pytest.raises(NotAStateError, match="unit norm"):
        min_t_nm_scan(quasi_eternal(0.4, 1.0), 5, np.arange(0.0, 3.0, 0.1), seed=1)


@pytest.mark.parametrize("matrix, error", NOT_STATES.values(), ids=NOT_STATES)
def test_trajectory_rejects_non_states(matrix, error):
    with pytest.raises(error):
        Trajectory(matrix, quasi_eternal(0.4, 1.0), (2, 2), np.arange(0.0, 1.0, 0.1))


def test_trajectory_rejects_bad_dims():
    phi, ch, grid = maximally_entangled(2), quasi_eternal(0.4, 1.0), np.arange(0.0, 1.0, 0.1)
    for dims in ((2, 3), (2, 2, 2)):
        with pytest.raises(DimMismatchError):
            Trajectory(phi, ch, dims, grid)
    with pytest.raises(DimMismatchError):
        Trajectory(np.stack([phi, phi]), ch, (2, 2), grid)
    # A qubit channel on the qutrit of (2, 3) fails at the first measure.
    traj = Trajectory(np.eye(6) / 6, ch, (2, 3), grid)
    with pytest.raises(DimMismatchError):
        traj.measure_series(mi_measure, grid)


def _pure(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


@pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
def test_measure_series_matches_measure_at(dims):
    # Oracle: the single-matrix functional on one apply_map of as_affine(t)
    # per grid point. States: phi+ (on the first two levels),
    # a product state, a Schmidt tail of 1e-9, a singular marginal (pure
    # ancilla, mixed system, and the reverse) and a random mixed state.
    from helpers import random_pure_vector, random_unitary
    rng = np.random.default_rng(63)
    d_a, d_s = dims
    local = np.kron(random_unitary(rng, d_a), random_unitary(rng, d_s))
    phi = np.zeros(d_a * d_s)
    phi[[0, d_s + 1]] = 1.0
    tail = np.zeros(d_a * d_s)
    tail[[0, d_s + 1]] = np.sqrt(1.0 - 1e-18), 1e-9
    states = [
        _pure(phi),
        np.kron(_pure(random_pure_vector(rng, d_a)), _pure(random_pure_vector(rng, d_s))),
        _pure(local @ tail),
        np.kron(_pure(random_pure_vector(rng, d_a)), random_density(rng, d_s)),
        np.kron(random_density(rng, d_a), np.diag(np.eye(d_s)[0]).astype(complex)),
        random_density(rng, d_a * d_s),
    ]
    grid = np.concatenate(([0.0], np.linspace(0.05, 3.5, 70)))
    for channel in (quasi_eternal(0.4, 1.0), GadcChannel(), dephasing(0.3)):
        for rho in states:
            traj = Trajectory(rho, channel, dims, grid)
            for measure in (mi_measure, neg_measure):
                series = traj.measure_series(measure, grid)
                assert series.shape == grid.shape
                direct = [measure(apply_map(channel.as_affine(float(t)), traj.initial, dims),
                                  dims) for t in grid]
                np.testing.assert_allclose(series, direct, rtol=0, atol=1e-14)


def test_functionals_keep_floats_for_single_matrices():
    rho = maximally_entangled(2)
    for value in (correlations.entropy(rho), mutual_information(rho, (2, 2)),
                  negativity(rho, (2, 2))):
        assert isinstance(value, float) and np.ndim(value) == 0
    stack = np.stack([rho, np.eye(4) / 4, rho])
    np.testing.assert_allclose(mutual_information(stack, (2, 2)),
                               [2 * np.log(2), 0.0, 2 * np.log(2)], atol=1e-14)
    np.testing.assert_allclose(negativity(stack, (2, 2)), [0.5, 0.0, 0.5], atol=1e-14)
    np.testing.assert_allclose(correlations.entropy(stack), [0.0, np.log(4), 0.0], atol=1e-14)


def test_scan_backflow_measures_the_grid_once():
    # Criterion 04's trajectory: one call with the whole (2000, 4, 4) stack,
    # then only the two-time stacks of the onset refinement, one per
    # bisection step plus four for the bracket's ends.
    traj = Trajectory(maximally_entangled(2), quasi_eternal(0.4, 1.0), (2, 2),
                      np.arange(0.0, 4.0, 2e-3))
    shapes = []

    def measure(m, dims):
        shapes.append(np.shape(m))
        return mutual_information(m, dims)

    report = scan_backflow(measure, traj)
    assert report.onsets[0] == pytest.approx(2.741, abs=5e-3)
    assert shapes[0] == (2000, 4, 4)
    assert all(shape == (2, 4, 4) for shape in shapes[1:])
    steps = int(np.ceil(np.log2(2 * 2e-3 / witness.ONSET_REFINE_TOL)))
    assert len(shapes) - 1 <= (steps + 4) * len(report.onsets)


@pytest.mark.parametrize("channel", [quasi_eternal(0.4, 1.0), GadcChannel()])
def test_mi_series_makes_one_as_affine_call(monkeypatch, channel):
    calls = []
    original = type(channel).as_affine
    monkeypatch.setattr(type(channel), "as_affine",
                        lambda self, t: calls.append(np.shape(t)) or original(self, t))
    grid = np.arange(0.0, 2.0, 0.01)
    monkeypatch.setattr(witness, "CHUNK_MATRICES", 7 * 20)
    witness.mi_series(channel, sample_pure_vectors((2, 2), 20, seed=9), grid, workers=2)
    assert calls == [grid.shape]


def test_mi_series_caps_matrices_per_chunk(monkeypatch):
    # The stub records each chunk's (times, states) shape in place of its MI.
    # CHUNK_TIMES caps only min_t_nm_scan's chunks: 100 states take 163 times.
    sizes = []
    monkeypatch.setattr(witness, "_chunk_mi", lambda coords, a, b, joint, side, s_a: sizes.append(
        (b - a, len(s_a))) or np.zeros((b - a, len(s_a))))
    grid = np.linspace(0.0, 3.0, 301)
    channel = quasi_eternal(0.4, 1.0)
    for count, per_chunk in ((3000, witness.CHUNK_MATRICES // 3000), (1000, 16), (256, 64),
                             (100, 163)):
        sizes.clear()
        witness.mi_series(channel, sample_pure_vectors((2, 2), count, seed=8), grid, workers=1)
        assert sum(t for t, _ in sizes) == grid.size
        assert all(n == count and t * n <= witness.CHUNK_MATRICES for t, n in sizes)
        assert max(t for t, _ in sizes) == per_chunk
    assert witness.CHUNK_MATRICES // 3000 == 5
    # More states than CHUNK_MATRICES / 2: chunks of two times, the last one
    # of one, where a one-time chunk would compute a second row and drop it.
    monkeypatch.setattr(witness, "CHUNK_MATRICES", 2 * 256 - 1)
    sizes.clear()
    witness.mi_series(channel, sample_pure_vectors((2, 2), 256, seed=8), grid, workers=1)
    assert sizes == [(2, 256)] * 150 + [(1, 256)]


def _increase_intervals_loop(grid, series, margin):
    # The former per-step loop, kept as the oracle of the vectorized version.
    diffs = np.diff(series)
    rising = diffs > margin
    intervals = []
    i = 0
    n = rising.size
    while i < n:
        if rising[i]:
            j = i
            while j + 1 < n and rising[j + 1]:
                j += 1
            intervals.append((float(grid[i]), float(grid[j + 1]), i))
            i = j + 1
        i += 1
    return intervals


def test_increase_intervals_matches_loop():
    rng = np.random.default_rng(64)
    n = 30
    grid = np.cumsum(rng.uniform(0.1, 1.0, n))
    edge_cases = [np.arange(n, dtype=float), -np.arange(n, dtype=float), np.zeros(n),
                  np.r_[0.0, np.ones(n - 1)], np.r_[np.zeros(n - 1), 1.0],
                  np.r_[0.0, 1.0, np.zeros(n - 3), 1.0]]
    randoms = [np.cumsum(rng.choice([-1.0, 1.0], n)) for _ in range(100)]
    for series in edge_cases + randoms:
        for margin in (0.0, 0.5):
            assert witness._increase_intervals(grid, series, margin) \
                == _increase_intervals_loop(grid, series, margin)
    for size in (1, 2):
        series = np.arange(size, dtype=float)
        assert witness._increase_intervals(grid[:size], series, 0.0) \
            == _increase_intervals_loop(grid[:size], series, 0.0)


def test_gadc_epsilon_scan_nesting():
    results = gadc_epsilon_scan([1e-3, 1e-4, 1e-5])
    by_eps = {r.eps: r for r in results}
    t_lo, t_hi = 0.13437, 0.31416
    prev = None
    for eps in (1e-3, 1e-4, 1e-5):
        r = by_eps[eps]
        assert r.interval is not None
        assert not r.precision_loss
        lo, hi = r.interval
        assert t_lo < lo < hi < t_hi
        if prev is not None:
            grid_tol = 5e-4
            assert lo <= prev[0] + grid_tol
            assert hi >= prev[1] - grid_tol
        prev = (lo, hi)


def test_gadc_epsilon_scan_product_state():
    with pytest.warns(witness.PrecisionLossWarning):
        res = gadc_epsilon_scan([0.0], grid=np.arange(0.1, 0.35, 1e-3))
    assert res[0].interval is None
    assert res[0].mi_max == pytest.approx(0.0, abs=1e-12)


def test_gadc_epsilon_scan_flags_an_interval_lost_under_the_margin_floor():
    # At eps = 1e-6 the largest rise (~4e-15) sits under the 1e-14 floor of the
    # margin, so no interval is found: a lost interval, not an absent one.
    with pytest.warns(witness.PrecisionLossWarning, match="eps = 1e-06"):
        [lost] = gadc_epsilon_scan([1e-6])
    assert lost.interval is None and lost.precision_loss
    with warnings.catch_warnings():
        warnings.simplefilter("error", witness.PrecisionLossWarning)
        found = gadc_epsilon_scan([1e-3, 1e-4, 1e-5, 3e-6])
    assert all(r.interval is not None and not r.precision_loss for r in found)


@pytest.mark.parametrize("eps", [np.nan, 2.0, -0.1, np.inf])
def test_gadc_epsilon_scan_rejects_eps_outside_unit_interval(eps):
    with pytest.raises(ConfigParseError):
        gadc_epsilon_scan([1e-3, eps])


def test_mi_rate_hessian_broadcasts_bit_identically():
    rng = np.random.default_rng(64)
    gx, gy, gz = rng.uniform(-0.5, 1.5, size=(3, 20))
    a12 = rng.uniform(-0.2, 0.2, size=20)
    stacked = mi_rate_hessian(gx, gy, gz, a12)
    assert stacked.shape == (20, 15, 15)
    singles = np.array([mi_rate_hessian(float(x), float(y), float(z), float(a))
                        for x, y, z, a in zip(gx, gy, gz, a12)])
    np.testing.assert_array_equal(stacked, singles)
    # Scalar rates broadcast against an array of states.
    np.testing.assert_array_equal(mi_rate_hessian(0.3, 0.5, 0.7, a12[:4])[3],
                                  mi_rate_hessian(0.3, 0.5, 0.7, a12[3]))


def test_hessian_closed_form_values():
    gamma = 0.7
    vals = hessian_eigs_closed(gamma, gamma, gamma, 0.0)
    np.testing.assert_allclose(vals, -64.0 * gamma, rtol=1e-12)
    # Quasi-eternal rates past t0: all pair sums positive, all eigenvalues negative.
    ch = quasi_eternal(0.4, 1.0)
    gx, gy, gz = ch.rates(3.0)
    assert np.all(hessian_eigs_closed(gx, gy, gz, 0.13) < 0)
    # A strongly negative rate flips at least one sign.
    assert np.max(hessian_eigs_closed(1.0, 1.0, -3.0, 0.1)) > 0
    with pytest.raises(BoundaryStateError):
        hessian_eigs_closed(1.0, 1.0, 1.0, 0.25)


def test_hessian_numeric_matches_closed():
    rng = np.random.default_rng(54)
    for _ in range(50):
        gx, gy, gz = rng.uniform(-0.5, 1.5, size=3)
        a12 = float(rng.uniform(-0.2, 0.2))
        if abs(a12) < 1e-6:
            a12 = 0.05
        numeric = np.sort(np.linalg.eigvalsh(mi_rate_hessian(gx, gy, gz, a12)))
        closed = np.sort(np.concatenate([hessian_eigs_closed(gx, gy, gz, a12), np.zeros(6)]))
        scale = max(1.0, float(np.max(np.abs(closed))))
        np.testing.assert_allclose(numeric, closed, rtol=1e-3, atol=1e-6 * scale)


def test_mi_rate_hessian_matches_finite_differences_of_mi():
    # An oracle outside the Daleckii-Krein sum: central second differences of
    # the mutual information (eigh and Rayleigh quotients) along the Pauli
    # products sigma_i (x) sigma_j, coordinate 4 i + j, which contracts at the
    # rate 0, gy + gz, gx + gz or gx + gy of the system factor j = 0 .. 3.
    rng = np.random.default_rng(65)
    products = [np.kron(p, q) for p in qmat.PAULIS for q in qmat.PAULIS]
    diagonal = [(j, j) for j in range(1, 16)]
    coupled = [(1, 13), (14, 2), (3, 15)]  # the nonzero off-diagonal entries
    h = 1e-4
    for _ in range(6):
        gx, gy, gz = rng.uniform(0.1, 1.5, size=3)
        a12 = float(rng.uniform(-0.2, 0.2))
        rates = (0.0, gy + gz, gx + gz, gx + gy)
        hess = mi_rate_hessian(gx, gy, gz, a12)
        scale = float(np.max(np.abs(hess)))
        rho0 = 0.25 * np.eye(4) + a12 * products[12]

        def mi(shift):
            return mutual_information(rho0 + shift, (2, 2))

        for j, k in diagonal + coupled + rng.integers(1, 16, size=(6, 2)).tolist():
            e_j, e_k = h * products[j], h * products[k]
            d2 = (mi(e_j + e_k) - mi(e_j - e_k) - mi(e_k - e_j) + mi(-e_j - e_k)) / (4 * h * h)
            expected = -(rates[j % 4] + rates[k % 4]) * d2
            assert hess[j - 1, k - 1] == pytest.approx(expected, abs=1e-5 * scale), (j, k)


@pytest.mark.parametrize("a12", [0.0, 1e-12, -1e-12, 1e-10, 1e-9])
def test_mi_rate_hessian_near_the_maximally_mixed_state(a12):
    # Joint eigenvalue gaps of 2 a12, down to 2e-12, need no crossing guard.
    for gx, gy, gz in [(0.3, 0.5, 0.7), (1.2, -0.4, 0.9)]:
        numeric = np.sort(np.linalg.eigvalsh(mi_rate_hessian(gx, gy, gz, a12)))
        closed = np.sort(np.concatenate([hessian_eigs_closed(gx, gy, gz, a12), np.zeros(6)]))
        scale = max(1.0, float(np.max(np.abs(closed))))
        np.testing.assert_allclose(numeric, closed, rtol=0, atol=1e-12 * scale)


def test_mi_rate_hessian_diagonalizes_nothing(monkeypatch):
    # rho and its marginals are diagonal: their spectra are known.
    def diagonalized(*args, **kwargs):
        raise AssertionError("mi_rate_hessian called an eigensolver")

    monkeypatch.setattr(np.linalg, "eigh", diagonalized)
    monkeypatch.setattr(np.linalg, "eigvalsh", diagonalized)
    assert mi_rate_hessian(0.3, 0.5, 0.7, np.array([0.0, 0.1, -0.2])).shape == (3, 15, 15)


@pytest.mark.parametrize("a12", [0.25, -0.25, 0.3, -0.26, np.nan, [0.1, 0.25], [np.nan, 0.0]],
                         ids=str)
def test_mi_rate_hessian_rejects_states_off_the_interior(a12):
    with pytest.raises(BoundaryStateError):
        mi_rate_hessian(0.3, 0.5, 0.7, a12)
    if np.ndim(a12) == 0:
        with pytest.raises(BoundaryStateError):
            hessian_eigs_closed(0.3, 0.5, 0.7, a12)


def test_zero_space_lambda_deriv():
    assert zero_space_lambda_deriv(1.0, 0.0, 0.0, 1.0, 1.0, 1.0) == pytest.approx(-2.0)
    assert zero_space_lambda_deriv(0.3, -0.2, 0.9, 0.0, 0.0, 0.0) == 0.0
    with pytest.raises(ZeroVectorError):
        zero_space_lambda_deriv(0.0, 0.0, 0.0, 1.0, 1.0, 1.0)


def test_zero_space_matches_coordinate_trajectory():
    # Finite difference of sqrt(a1^2+a2^2+a3^2) with coordinates contracting
    # at the pairwise rate sums (the convention the formula is stated in).
    ch = quasi_eternal(0.4, 1.0)
    rng = np.random.default_rng(55)
    t = 2.3
    h = 1e-6
    gx, gy, gz = ch.rates(t)
    for _ in range(10):
        a = rng.uniform(-0.2, 0.2, size=3)

        def length(s):
            factors = np.exp(np.array([-(gy + gz), -(gx + gz), -(gx + gy)]) * (s - t))
            return float(np.linalg.norm(a * factors))

        fd = (length(t + h) - length(t - h)) / (2 * h)
        exact = zero_space_lambda_deriv(a[0], a[1], a[2], gx, gy, gz)
        assert exact == pytest.approx(fd, abs=1e-8)


def test_unital_witness_state():
    rng = np.random.default_rng(56)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    state = unital_witness_state(v, 0.6)
    for keep in (0, 1):
        np.testing.assert_allclose(qmat.partial_trace(state.matrix, state.dims, keep),
                                   np.eye(2) / 2, atol=1e-12)
    tiny = unital_witness_state(v, 1e-8)
    assert mutual_information(tiny.matrix, (2, 2)) == pytest.approx(0.0, abs=1e-7)
    # Pulling back through a contraction keeps it a state for small p: the
    # witness lies in the image of bijective unital evolutions.
    from nmflow.channels import AffineQubitMap, apply_map
    inv = AffineQubitMap((1.0 / 0.8,) * 3)
    pulled = apply_map(inv, unital_witness_state(v, 0.3).matrix, (2, 2))
    assert float(np.linalg.eigvalsh(pulled)[0]) >= -1e-12
    with pytest.raises(ValueError):
        unital_witness_state(v, 0.0)


def test_no_false_positives_on_cp_divisible_channels():
    rng = np.random.default_rng(57)
    grid = np.arange(0.0, 2.0 + 1e-12, 2e-2)
    for _ in range(20):
        rates = rng.uniform(0.0, 1.0, size=3)
        ch = RateChannel(*[ConstantRate(float(g)) for g in rates])
        vecs = sample_pure_vectors((2, 2), 50, seed=int(rng.integers(1 << 30)))
        series = witness.mi_series(ch, vecs, grid, workers=1)
        assert np.all(np.diff(series, axis=0) <= 1e-10)
        for vec in vecs[:5]:
            traj = Trajectory(np.outer(vec, vec.conj()), ch, (2, 2), grid)
            assert not scan_backflow(neg_measure, traj).intervals


def test_no_false_positives_c2_reduced():
    # Reduced-size version of the optimizer part of the no-false-positive
    # invariant; margin accounts for see-saw noise.
    from nmflow.mepovm import c2_A
    rng = np.random.default_rng(58)
    grid = np.linspace(0.0, 2.0, 9)
    for _ in range(4):
        rates = rng.uniform(0.05, 0.8, size=3)
        ch = RateChannel(*[ConstantRate(float(g)) for g in rates])
        for vec in sample_pure_vectors((2, 2), 3, seed=int(rng.integers(1 << 30))):
            rho0 = np.outer(vec, vec.conj())
            vals = [c2_A(apply_map(ch.as_affine(float(t)), rho0, (2, 2)), (2, 2), restarts=3,
                         seed=1).value for t in grid]
            assert np.all(np.diff(vals) <= 1e-7)


def test_gadc_series_coefficient_signs():
    # Leading-order expansion of dI/dt in the entanglement amplitude near the
    # edges of the first non-CP window: dI/dt = (a + b ln eps) eps^2 + ...
    # with sign(b) = -sign(dtau) at the opening edge and +sign(dtau) at the
    # closing edge, checked at |dtau| >= 1e-4 (double-precision window).
    from nmflow.channels import GadcChannel
    from nmflow.numutil import bisect_root
    gadc = GadcChannel()
    t_in = bisect_root(lambda t: gadc.rates(t)[0], 0.05, 0.2, tol=1e-12)
    t_fin = bisect_root(lambda t: gadc.rates(t)[0], 0.25, 0.35, tol=1e-12)
    h = 1e-5
    e1, e2 = 1e-3, 1e-4

    def didt(t, eps):
        v = np.zeros(4, complex)
        v[0] = np.sqrt(1 - eps * eps)
        v[3] = eps
        s = witness.mi_series(gadc, v[None, :], np.array([t - h, t + h]), workers=1)[:, 0]
        return (s[1] - s[0]) / (2 * h)

    # Opening edge: resolvable in doubles down to |dtau| = 1e-4.
    for dtau in (1e-4, 1e-3):
        for sgn in (+1.0, -1.0):
            t = t_in + sgn * dtau
            beta = (didt(t, e1) / e1 ** 2 - didt(t, e2) / e2 ** 2) / np.log(e1 / e2)
            assert np.sign(beta) == -sgn
    # Closing edge: the asymptotic window needs larger offsets in doubles
    # (below eps ~ 3e-4 the log term is unresolvable at |dtau| = 1e-4).
    e1, e2 = 1e-2, 1e-3
    for sgn in (+1.0, -1.0):
        t = t_fin + sgn * 1e-3
        beta = (didt(t, e1) / e1 ** 2 - didt(t, e2) / e2 ** 2) / np.log(e1 / e2)
        assert np.sign(beta) == sgn


def test_gadc_near_product_rate_and_its_sign_law():
    # Under GADC g = 1/(1 + cos^2(5t)(e^t - 1)) and dg/dt = -g^2 e^t gamma_minus:
    # as mu -> 0 the mutual information rises exactly where the map is not
    # CP-divisible.
    gadc = GadcChannel()
    ts = np.linspace(0.001, 0.6, 600)
    g = near_product_rate(gadc.as_affine(ts))
    np.testing.assert_allclose(g, 1.0 / (1.0 + np.cos(5.0 * ts) ** 2 * (np.exp(ts) - 1.0)),
                               rtol=0, atol=1e-15)
    h = 1e-5
    dg = (near_product_rate(gadc.as_affine(ts + h))
          - near_product_rate(gadc.as_affine(ts - h))) / (2.0 * h)
    gamma_minus = gadc.rates(ts)[0]
    clear = np.abs(gamma_minus) > 1e-3
    assert np.count_nonzero(clear) > 550 and (gamma_minus[clear] < 0).any()
    np.testing.assert_array_equal(np.sign(dg[clear]), -np.sign(gamma_minus[clear]))


def test_gadc_mi_slope_tends_to_the_near_product_rate():
    # The slope of I/mu against ln(1/mu) between mu and mu/100 tends to g.
    gadc = GadcChannel()
    ts = np.array([0.05, 0.1, 0.2, 0.3, 0.4])
    mus = np.array([1e-6, 1e-8, 1e-10])
    vecs = np.zeros((mus.size, 4), dtype=complex)
    vecs[:, 0], vecs[:, 3] = np.sqrt(1.0 - mus), np.sqrt(mus)
    scaled = witness.mi_series(gadc, vecs, ts, workers=1) / mus
    slopes = np.diff(scaled, axis=1) / np.log(mus[:-1] / mus[1:])
    g = near_product_rate(gadc.as_affine(ts))
    np.testing.assert_allclose(slopes[:, 0], g, rtol=0, atol=1e-4)
    np.testing.assert_allclose(slopes[:, 1], g, rtol=0, atol=1e-6)


def test_gadc_epsilon_scan_lies_inside_the_near_product_window():
    # The eps -> 0 increase window is where g rises: between the roots of
    # gamma_minus, 0.1343746281 and pi/10.
    gadc = GadcChannel()
    lo = bisect_root(lambda t: gadc.rates(t)[0], 0.05, 0.2, tol=1e-13)
    hi = bisect_root(lambda t: gadc.rates(t)[0], 0.25, 0.35, tol=1e-13)
    assert lo == pytest.approx(0.1343746281, rel=0, abs=1e-10)
    assert hi == pytest.approx(np.pi / 10.0, rel=0, abs=1e-12)
    for r in gadc_epsilon_scan([1e-3, 1e-4, 1e-5]):
        assert lo < r.interval[0] < r.interval[1] < hi


def test_scans_reject_a_channel_that_is_not_cptp():
    # quasi_eternal(0.4, 0.5) is not CPTP from t = 1.966 on: every driver that
    # evolves states fails at its entry, naming the time that as_affine names.
    ch = quasi_eternal(0.4, 0.5)
    grid = np.arange(0.0, 3.0001, 2e-3)
    with pytest.raises(UnphysicalError) as expected:
        ch.as_affine(grid)
    vectors = sample_pure_vectors((2, 2), 50, seed=1)
    traj = Trajectory(np.outer(vectors[0], vectors[0].conj()), ch, (2, 2), grid)
    for run in (lambda: witness.mi_series(ch, vectors, grid),
                lambda: min_t_nm_scan(ch, 50, grid, seed=1),
                lambda: scan_backflow(mutual_information, traj)):
        with pytest.raises(UnphysicalError) as err:
            run()
        assert str(err.value) == str(expected.value)


def test_amp_damp_scans_run_through_g_zero():
    # G falls to 0 at t = 1 and revives: Lambda_1 is the constant map, so the
    # mutual information drops to 0 there and rises after it.
    ch = channel_from_json({"family": "amp_damp", "p": 0.3,
                            "G": [[0, 1], [1, 0], [2, 0.5], [3, 0]]})
    grid = np.linspace(0.0, 3.0, 61)
    vectors = sample_pure_vectors((2, 2), 4, seed=3)
    series = witness.mi_series(ch, vectors, grid, workers=1)
    for column, v in zip(series.T, vectors):
        rho = np.outer(v, v.conj())
        ref = [mutual_information(apply_map(ch.as_affine(t), rho, (2, 2)), (2, 2)) for t in grid]
        np.testing.assert_allclose(column, ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(series[20], 0.0, rtol=0, atol=1e-12)
    onset, _, onsets = min_t_nm_scan(ch, 20, grid, seed=2)
    assert np.all(onsets == 1.0) and onset == pytest.approx(1.0, abs=witness.ONSET_REFINE_TOL)


def test_image_contraction_bound():
    # With t0 > ln sqrt(2/eps^5), every state lands within eps/2 trace
    # distance of the maximally mixed state by t1'' = t1' + (t0'' - 1).
    eps = 0.1
    t0pp = float(np.log(np.sqrt(2.0 / eps ** 5))) + 0.1
    t1pp = 1.2 + (t0pp - 1.0)
    ch = quasi_eternal(0.4, t0pp)
    # The square roots of the map's lambdas bound its Bloch contraction from above.
    lam = np.sqrt(ch.as_affine(t1pp).lambdas)
    assert np.max(lam) < eps
    rng = np.random.default_rng(59)
    for _ in range(50):
        rho = random_density(rng, 2)
        w = np.array([np.real(np.trace(rho @ p)) for p in qmat.PAULIS[1:]])
        w_evolved = lam * w
        rho_t = 0.5 * (np.eye(2) + sum(wi * p for wi, p in zip(w_evolved, qmat.PAULIS[1:])))
        assert trace_distance(rho_t, np.eye(2) / 2) < eps / 2
