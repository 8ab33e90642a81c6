"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them live). The full-size random scan (criterion 6,
2e4 samples) runs when NMFLOW_FULL_SCAN=1; the reduced 2e3-sample run gates CI.
"""

import os
import time

import numpy as np

from helpers import random_density, random_kraus
from nmflow import channels, correlations, divisibility, mepovm, qmat, witness
from nmflow.channels import ConstantRate, GadcChannel, dephasing, depolarizing, quasi_eternal
from nmflow.numutil import bisect_root
from nmflow.qmat import maximally_entangled


def report(num: int, desc: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {desc} ({detail})")
    assert ok, f"criterion {num}: {desc} ({detail})"


def test_criterion_01_physicality_threshold():
    elapsed = min(
        _timed(lambda: divisibility.physicality_threshold(0.4))[1] for _ in range(5))
    value = divisibility.physicality_threshold(0.4)
    ok = abs(value - 0.7686) <= 1e-3 and elapsed < 1e-3
    report(1, "physicality threshold T(2/5)", ok,
           f"value={value:.6f}, target 0.7686 +/- 1e-3, {elapsed * 1e6:.1f} us")


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_criterion_02_entanglement_breaking_time():
    (t_eb, elapsed) = _timed(lambda: witness.find_t_eb(quasi_eternal(0.4, 2.0), tol=1e-3))
    ok = 1.46 <= t_eb <= 1.48 and elapsed < 1.0
    report(2, "entanglement-breaking time of (2/5, 2)", ok,
           f"t_EB={t_eb:.4f}, target [1.46, 1.48], {elapsed:.2f} s")


def test_criterion_03_gadc_non_cp_interval():
    gadc = GadcChannel()

    def locate():
        f = lambda t: gadc.rates(t)[0]
        return (bisect_root(f, 0.05, 0.2, tol=1e-6), bisect_root(f, 0.25, 0.35, tol=1e-6))

    (r1, r2), elapsed = _timed(locate)
    ok = abs(r1 - 0.13437) <= 5e-4 and abs(r2 - 0.31416) <= 5e-4 and elapsed < 1.0
    report(3, "first non-CP window of the GADC", ok,
           f"roots=({r1:.5f}, {r2:.5f}), targets (0.13437, 0.31416) +/- 5e-4, {elapsed:.2f} s")


def test_criterion_04_mi_onset_maximally_entangled():
    ch = quasi_eternal(0.4, 1.0)
    traj = witness.Trajectory(maximally_entangled(2), ch, (2, 2),
                              np.arange(0.0, 4.0, 2e-3))

    def scan():
        return witness.scan_backflow(
            lambda m, dims: correlations.mutual_information(m, dims), traj)

    report_obj, elapsed = _timed(scan)
    onset = report_obj.onsets[0] if report_obj.onsets else float("nan")
    ok = abs(onset - 2.741) <= 5e-3 and elapsed < 5.0
    report(4, "MI backflow onset for the maximally entangled probe", ok,
           f"onset={onset:.4f}, target 2.741 +/- 0.005, {elapsed:.2f} s")


def test_criterion_05_dp_z_sign_change():
    ch = quasi_eternal(0.4, 1.0)
    (root, elapsed) = _timed(
        lambda: bisect_root(lambda t: ch.probs_derivative(t)[3], 1.0, 2.0, tol=1e-5))
    ok = abs(root - 1.3254) <= 1e-3 and elapsed < 1.0
    report(5, "sign change of dp_z/dt", ok,
           f"root={root:.5f}, target 1.3254 +/- 1e-3, {elapsed:.2f} s")


def test_criterion_06_random_state_scan():
    ch = quasi_eternal(0.4, 1.0)
    grid = np.arange(0.0, 3.0 + 1e-12, 2e-3)
    full = os.environ.get("NMFLOW_FULL_SCAN") == "1"
    count, bound = (20_000, 2.43) if full else (2_000, 2.55)
    (result, elapsed) = _timed(lambda: witness.min_t_nm_scan(ch, count, grid, seed=24))
    onset, state, onsets = result
    ok = onset <= bound and elapsed < 600.0
    # Argmin structure at full scale: near-product with a z-dominated system
    # marginal (the dominant-cross-amplitude pattern up to local unitaries on
    # the ancilla); smaller samples need not reach that extreme.
    psi = state.reshape(2, 2)
    schmidt = np.linalg.svd(psi, compute_uv=False)
    rho_s = np.einsum("as,at->st", psi, psi.conj())
    bloch = np.array([np.real(np.trace(rho_s @ p)) for p in qmat.PAULIS[1:]])
    if full:
        ok = ok and schmidt[0] >= 0.98 and abs(bloch[2]) >= 0.9 * np.linalg.norm(bloch)
    report(6, f"minimum MI onset over {count} random states", ok,
           f"min={onset:.4f} <= {bound}, argmin schmidt={schmidt[0]:.5f}, "
           f"|w_z|/|w|={abs(bloch[2]) / np.linalg.norm(bloch):.3f}, {elapsed:.1f} s")


def test_criterion_07_eternal_negative_control():
    ch = quasi_eternal(1.0, 0.0)
    grid = np.arange(0.0, 6.0 + 1e-12, 5e-3)

    def scan():
        vectors = witness.sample_pure_vectors((2, 2), 1000, seed=21)
        series = witness.mi_series(ch, vectors, grid)
        return float(np.max(np.diff(series, axis=0)))

    (max_rise, elapsed) = _timed(scan)
    ok = max_rise <= 1e-9 and elapsed < 120.0
    report(7, "eternal model shows no MI backflow over 1000 random states", ok,
           f"max forward difference {max_rise:.2e} <= 1e-9, {elapsed:.1f} s")


def test_criterion_08_gadc_epsilon_scan():
    (results, elapsed) = _timed(lambda: witness.gadc_epsilon_scan([1e-3, 1e-4, 1e-5]))
    lo_t, hi_t = 0.13437, 0.31416
    ok = elapsed < 60.0
    prev = None
    detail = []
    for res in sorted(results, key=lambda r: -r.eps):
        ok = ok and res.interval is not None
        if res.interval is None:
            continue
        lo, hi = res.interval
        detail.append(f"{res.eps:g}:[{lo:.4f},{hi:.4f}]")
        ok = ok and lo_t < lo < hi < hi_t
        if prev is not None:
            ok = ok and lo <= prev[0] + 5e-4 and hi >= prev[1] - 5e-4
        prev = (lo, hi)
    report(8, "GADC MI increase intervals nested inside the non-CP window", ok,
           "; ".join(detail) + f", {elapsed:.1f} s")


def test_criterion_09_hessian_closed_forms():
    rng = np.random.default_rng(31)

    def run():
        worst = 0.0
        for _ in range(50):
            gx, gy, gz = rng.uniform(-0.5, 1.5, size=3)
            a12 = float(rng.uniform(-0.2, 0.2))
            if abs(a12) < 1e-6:
                a12 = 0.05
            numeric = np.sort(np.linalg.eigvalsh(witness.mi_rate_hessian(gx, gy, gz, a12)))
            closed = np.sort(np.concatenate(
                [witness.hessian_eigs_closed(gx, gy, gz, a12), np.zeros(6)]))
            scale = max(1.0, float(np.max(np.abs(closed))))
            worst = max(worst, float(np.max(np.abs(numeric - closed) / scale)))
        return worst

    (worst, elapsed) = _timed(run)
    ok = worst <= 1e-3 and elapsed < 60.0
    report(9, "stationary-state Hessian spectrum matches the closed forms", ok,
           f"max relative deviation {worst:.2e} <= 1e-3 over 50 draws, {elapsed:.1f} s")


def test_criterion_10_probe_backflow_theorem():
    def run():
        probe = mepovm.build_probe(0.4, 2.0, 3.0, 0.2)
        ts = np.arange(0.0, 4.0 + 1e-9, 1e-2)
        vals = np.array([probe.closed_c2(float(t)) for t in ts])
        early_ok = bool(np.all(np.diff(vals[ts <= 2.0]) <= 1e-9))
        late_ok = bool(np.all(np.diff(vals[(ts >= 3.0)]) > 1e-9))
        opt = mepovm.c2_A(probe.state_at(3.0), cut=1)
        return early_ok, late_ok, opt.value

    ((early_ok, late_ok, opt_value), elapsed) = _timed(run)
    ok = early_ok and late_ok and abs(opt_value - 0.1) <= 1e-7 and elapsed < 120.0
    report(10, "probe backflow: monotone before t0, increasing after tau", ok,
           f"optimizer at tau {opt_value:.9f} vs 0.1 +/- 1e-7, "
           f"early={early_ok}, late={late_ok}, {elapsed:.1f} s")


def test_criterion_11_pg_counterexample():
    p1, p2, p3 = 0.4, 0.15, 0.45
    rho1 = np.eye(2) / 2
    rho2 = np.diag([1.0, 0.0]).astype(complex)
    rho3 = np.diag([0.0, 1.0]).astype(complex)
    proj = correlations.guessing_commuting(
        correlations.Ensemble((p1, p2, p3), (rho1, rho2, rho3))).value
    mixed = (1 - p2 / p1) * rho1 + (p2 / p1) * rho2
    trans = correlations.guessing_commuting(
        correlations.Ensemble((p1, p2, p3), (mixed, rho1, rho3))).value
    ok = abs(proj - (p1 / 2 + p3)) < 1e-12 and abs(trans - (p1 / 2 + p2 / 2 + p3)) < 1e-12
    report(11, "guessing-probability counterexample values", ok,
           f"projective {proj:.6f} = 0.65, transformed {trans:.6f} = 0.725")


# ---------------------------------------------------------------------------
# Criterion 12: property suites
# ---------------------------------------------------------------------------

def _check_data_processing(rng):
    for _ in range(200):
        rho = random_density(rng, 4)
        side = int(rng.integers(0, 2))
        kr = channels.KrausChannel(random_kraus(rng, 2))
        post = channels.apply_map(kr, rho, (2, 2), subsystem=side)
        assert correlations.mutual_information(post, (2, 2)) \
            <= correlations.mutual_information(rho, (2, 2)) + 1e-9
        post_b = channels.apply_map(kr, rho, (2, 2), subsystem=1)
        assert correlations.negativity(post_b, (2, 2)) \
            <= correlations.negativity(rho, (2, 2)) + 1e-9


def _heisenberg(kraus, x):
    out = np.zeros_like(x)
    for k in kraus:
        out += k.conj().T @ x @ k
    return out


def _check_c2_monotonicity(rng):
    slack = 1e-6
    cases = [((2, 2), 10, 12), ((2, 6), 8, 10)]  # (dims, n_states, n_maps per state)
    for dims, n_states, n_maps in cases:
        d_total = dims[0] * dims[1]
        for _ in range(n_states):
            rho = random_density(rng, d_total)
            pre_a = mepovm.c2_A(rho, dims, restarts=3, seed=5)
            pre_b = mepovm.c2_B(rho, dims, restarts=3, seed=5)
            pre = max(pre_a.value, pre_b.value)
            for _ in range(n_maps):
                side = int(rng.integers(0, 2))
                kr = random_kraus(rng, dims[side])
                post = channels.apply_map(channels.KrausChannel(kr), rho, dims,
                                          subsystem=side)
                post_a = mepovm.c2_A(post, dims, restarts=3, seed=5)
                post_b = mepovm.c2_B(post, dims, restarts=3, seed=5)
                post_val = max(post_a.value, post_b.value)
                if post_val <= pre + slack:
                    continue
                # Optimizer noise: re-optimize the pre-image warm-started from
                # the post-image's optimal measurements (pulled back through
                # the adjoint when the channel acted on the measured side).
                xa = _heisenberg(kr, post_a.x) if side == 0 else post_a.x
                xb = _heisenberg(kr, post_b.x) if side == 1 else post_b.x
                rescued = max(mepovm.c2_A(rho, dims, restarts=0, x0=xa).value,
                              mepovm.c2_B(rho, dims, restarts=0, x0=xb).value,
                              pre)
                assert post_val <= rescued + slack


def _check_me_povm_validity(rng):
    for _ in range(500):
        d = int(rng.integers(2, 7))
        rho = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
        povm = mepovm.construct_me_povm(rho)  # constructor validates ME + POVM
        assert abs(np.real(np.trace(rho @ povm.effects[0])) - 0.5) <= 1e-8


def _check_outcome_bound_values():
    assert mepovm.povm_count_bound(2, 2) == 3.0
    assert mepovm.povm_count_bound(2, 6) == 6.0
    assert mepovm.povm_count_bound(8, 2) == 8.0


def _check_sign_and_classification_laws(rng):
    # Single-parameter sign law: sign(dI/dt) = -sign(gamma) for dephasing and
    # depolarization.
    delta = 1e-5
    for make in (dephasing, depolarizing):
        for gamma_val in (0.8, -0.6):
            ch = make(ConstantRate(gamma_val))
            checked = 0
            for _ in range(25):
                rho = random_density(rng, 4)
                v = ch.intermediate(0.0, delta)
                di = (correlations.mutual_information(
                    channels.apply_map(v, rho, (2, 2)), (2, 2))
                    - correlations.mutual_information(rho, (2, 2))) / delta
                if abs(di) > 1e-9:
                    checked += 1
                    assert np.sign(di) == -np.sign(gamma_val)
            assert checked > 10
    # Interval dichotomy: the classifier never needs a P-but-not-CP label, and
    # the midpoint maps agree with the labels (warnings would flag otherwise).
    import warnings
    ch = dephasing(lambda t: float(np.cos(t)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        intervals = divisibility.classify_intervals(lambda t: float(np.cos(t)), t_max=6.0,
                                                    step=0.05, channel=ch)
    assert {iv.label for iv in intervals} <= {divisibility.DivisibilityLabel.CP_DIVISIBLE,
                                              divisibility.DivisibilityLabel.NOT_P}


def _check_choi_eigenvalue_sign_law():
    delta = 1e-6
    for gamma_val, t in ((0.9, 0.4), (-0.5, 1.2), (1.2, 0.1), (-0.1, 2.0)):
        ch = dephasing(ConstantRate(gamma_val))
        c = channels.choi(ch.intermediate(t, t + delta), 2)
        eigs = np.sort(np.linalg.eigvalsh((c + c.conj().T) / 2))
        derivs = eigs[:3] / delta
        moving = derivs[np.argmax(np.abs(derivs))]
        assert np.sign(moving) == np.sign(gamma_val)


def test_criterion_12_property_suites():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    _check_data_processing(rng)
    _check_me_povm_validity(rng)
    _check_outcome_bound_values()
    _check_sign_and_classification_laws(rng)
    _check_choi_eigenvalue_sign_law()
    _check_c2_monotonicity(rng)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 600.0
    report(12, "property suites (data processing, monotonicity, ME-POVMs, bounds, sign laws)",
           ok, f"{elapsed:.1f} s")
