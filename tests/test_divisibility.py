import numpy as np
import pytest

from helpers import dense_min_choi_eig, divisibility_rates, random_density
from nmflow import channels, divisibility
from nmflow.channels import AffineQubitMap, AmpDampChannel, ConstantRate, GadcChannel, RateChannel, \
    TabulatedRate, apply_map, dephasing, depolarizing, quasi_eternal
from nmflow.correlations import mutual_information
from nmflow.divisibility import (
    DivisibilityLabel,
    classify_intervals,
    is_p_qubit,
    min_choi_eig,
    physicality_threshold,
)
from nmflow.errors import BadIntervalError, ConfigParseError, UnphysicalError
from nmflow.qmat import maximally_entangled


def cptp_conditions(ch: RateChannel, t: float) -> tuple[float, float, float]:
    """(B_xyz, B_yzx, B_zxy) with B_ijk = 1 + A_ij - A_jk - A_ki; the channel
    is CPTP at t iff all three are nonnegative."""
    ayz, azx, axy = ch.intermediate(0.0, t).lambdas  # V_{t,0} = Lambda_t, unchecked
    return (1.0 + axy - ayz - azx, 1.0 + ayz - azx - axy, 1.0 + azx - axy - ayz)


def rhp_g(channel, t: float, dt: float = 1e-6) -> float:
    """Trace-norm witness g(t): the normalized growth rate of
    ||(1 (x) V_{t+dt,t})(phi+)||_1, positive iff V_{t+dt,t} is not CP."""
    v = channel.intermediate(t, t + dt)
    phi = maximally_entangled(2)
    out = apply_map(v, phi, (2, 2), subsystem=1)
    out = (out + out.conj().T) / 2.0
    norm1 = float(np.sum(np.abs(np.linalg.eigvalsh(out))))
    return (norm1 - 1.0) / dt


CP_TOL = 1e-9  # minimum Choi eigenvalue down to which these tests count a map as CP


def test_is_cp_identity():
    min_eig = min_choi_eig(AffineQubitMap((1.0, 1.0, 1.0)))
    assert min_eig >= -CP_TOL
    assert min_eig == pytest.approx(0.0, abs=1e-12)


def test_is_cp_quasi_eternal_intermediate_past_t0():
    ch = quasi_eternal(0.4, 2.0)
    assert min_choi_eig(ch.intermediate(3.0, 3.1)) < -1e-6
    # Before t0 all rates are nonnegative and the intermediate map is CP.
    assert min_choi_eig(ch.intermediate(0.5, 1.0)) >= -CP_TOL


def test_is_cp_dephasing_negative_rate():
    ch = dephasing(ConstantRate(-0.5))
    assert min_choi_eig(ch.intermediate(0.0, 0.3)) < -CP_TOL


@pytest.mark.parametrize("channel", [quasi_eternal(0.4, 1.0), GadcChannel()])
def test_min_choi_eig_over_times_matches_per_map_calls(channel):
    # One call on a map over times gives each map's value, as a float per map.
    grid = np.linspace(0.0, 3.0, 61)
    stacked = min_choi_eig(channel.intermediate(grid[:-1], grid[1:]))
    singles = [min_choi_eig(channel.intermediate(t, s)) for t, s in zip(grid[:-1], grid[1:])]
    assert stacked.shape == (grid.size - 1,)
    assert all(np.ndim(value) == 0 for value in singles)
    np.testing.assert_allclose(stacked, singles, rtol=0, atol=1e-15)


def test_min_choi_eig_matches_the_dense_spectrum():
    # The closed form of the two 2x2 Choi blocks against eigvalsh of the 4x4
    # Choi matrix, on random maps with a z shift, over times and one by one.
    rng = np.random.default_rng(41)
    lam, wz = rng.uniform(-1.5, 1.5, (3, 2000)), rng.uniform(-1.0, 1.0, 2000)
    maps = AffineQubitMap(tuple(lam), (0.0, 0.0, wz))
    np.testing.assert_allclose(min_choi_eig(maps), dense_min_choi_eig(maps), rtol=0, atol=1e-15)
    for k in range(0, 2000, 97):
        single = AffineQubitMap(tuple(lam[:, k]), (0.0, 0.0, wz[k]))
        assert abs(min_choi_eig(single) - dense_min_choi_eig(single)) <= 1e-15


def test_min_choi_eig_is_exactly_zero_on_the_cp_boundary():
    # The identity map and every CP dephasing step keep a zero Choi eigenvalue
    # exactly, as the dense spectrum does: the scans evaluate these steps.
    assert min_choi_eig(AffineQubitMap((1.0, 1.0, 1.0))) == 0.0
    grid = np.linspace(0.0, 3.0, 1501)
    for ch in (dephasing(0.3), dephasing(TabulatedRate(((0.0, 1.0), (5.0, -0.3))))):
        steps = ch.intermediate(grid[:-1], grid[1:])
        assert np.all(min_choi_eig(steps) == 0.0)
        assert np.all(dense_min_choi_eig(steps) == 0.0)


@pytest.mark.parametrize("shift", [(0.1, 0.0, 0.0), (0.0, -0.2, 0.3),
                                   (np.array([0.0, 1e-3]), 0.0, 0.0)])
def test_min_choi_eig_rejects_an_x_or_y_shift(shift):
    with pytest.raises(ConfigParseError):
        min_choi_eig(AffineQubitMap((0.5, 0.5, 0.5), shift))


def test_is_p_identity_and_expanding():
    assert is_p_qubit(AffineQubitMap((1.0, 1.0, 1.0)))
    # Dephasing backwards in time expands sigma_x: witnessed by (1 + sigma_x)/2.
    q = np.exp(0.4)
    assert not is_p_qubit(AffineQubitMap((q, q, 1.0)))


def test_is_p_quasi_eternal_intermediates():
    ch = quasi_eternal(0.4, 2.0)
    for (t, s) in ((2.5, 3.0), (3.0, 4.5), (6.0, 6.5)):
        v = ch.intermediate(t, s)
        assert is_p_qubit(v)
        assert min_choi_eig(v) < -CP_TOL


def test_is_p_affine_map():
    # Amplitude damping maps are positive; pushing the translation out is not.
    assert is_p_qubit(AmpDampChannel(lambda t: 0.6, p=0.9, dg_dt=0.0).as_affine(1.0))
    bad = AffineQubitMap((0.6, 0.6, 0.36), (0.0, 0.0, 0.8))
    assert not is_p_qubit(bad)


# Edge cases of the closed form, as (lambda, z shift): b = |lambda_z w| equal
# to gap = max(lambda_x^2, lambda_y^2) - lambda_z^2 (exactly, in floats),
# gap = 0, gap < 0, w = 0, lambda_z = 0, lambda_x != lambda_y and |lambda| > 1,
# each positive and not.
_EDGE_AFFINE_MAPS = [
    ((0.375, 0.1, 0.25), 0.3125),
    ((0.75, -0.5, 0.5), 0.625),
    ((0.6, 0.3, -0.6), 0.3),
    ((0.6, 0.6, 0.6), 0.5),
    ((0.3, 0.2, 0.7), 0.2),
    ((0.3, -0.2, 0.7), -0.4),
    ((0.99, -0.5, 0.2), 0.0),
    ((1.01, 0.3, 0.3), 0.0),
    ((0.6, 0.6, 0.0), 0.5),
    ((0.6, -0.6, 0.0), 0.9),
    ((0.9, 0.4, 0.3), 0.2),
    ((-0.4, 0.95, 0.2), -0.35),
    ((1.2, 0.3, 0.1), 0.1),
    ((0.2, 0.1, -1.05), 0.0),
]


def test_is_p_affine_against_dense_sampling():
    # Oracle: for an affine qubit map, positivity is max_n ||diag(l) n + w|| <= 1
    # over unit Bloch vectors; compare the verdict against a dense random
    # sample of directions. is_p_qubit holds iff sqrt(h*) <= 1 + 2 tol, so a
    # tol 1e-3 either side of the sampled maximum also pins h* itself.
    rng = np.random.default_rng(23)
    n_dirs = rng.normal(size=(200_000, 3))
    n_dirs /= np.linalg.norm(n_dirs, axis=1, keepdims=True)
    random_maps = [(rng.uniform(-1.0, 1.0, size=3),
                    rng.uniform(-0.5, 0.5) * rng.uniform(0.0, 1.0)) for _ in range(50)]
    for lam, wz in random_maps + _EDGE_AFFINE_MAPS:
        lam, w = np.asarray(lam), np.array([0.0, 0.0, wz])
        qmap = AffineQubitMap(tuple(lam), tuple(w))
        worst = float(np.max(np.linalg.norm(n_dirs * lam + w, axis=1)))
        assert not is_p_qubit(qmap, tol=(worst - 1.0) / 2.0 - 1e-3)
        assert is_p_qubit(qmap, tol=(worst - 1.0) / 2.0 + 1e-3)
        if abs(worst - 1.0) < 1e-4:
            continue  # too close to the boundary for a sampling oracle
        assert is_p_qubit(qmap) == (worst <= 1.0)


def test_is_p_rejects_x_or_y_shift():
    # The closed form covers shifts along z, the only ones the families build.
    for lam, w in [((0.9, 0.5, 0.3), (0.0, 0.3, 0.2)), ((0.5, -0.95, 0.3), (0.4, 0.0, 0.3)),
                   ((0.9, 0.85, 0.1), (0.0, 0.3, 0.0)), ((0.8, 0.8, 0.3), (0.1, 0.1, 0.2)),
                   ((0.7, -0.7, 0.7), (0.2, 0.0, 0.3)), ((1.2, 0.3, 0.1), (0.0, 0.1, 0.1)),
                   ((-1.1, 0.4, 0.2), (0.05, 0.0, 0.0)), ((0.9, 0.3, 0.2), (1e-9, 0.2, 0.1))]:
        with pytest.raises(ConfigParseError, match="along z"):
            is_p_qubit(AffineQubitMap(lam, w))
    assert is_p_qubit(AffineQubitMap((0.5, 0.5, 0.5), (-0.0, -0.0, 0.1)))


def test_physicality_threshold_values():
    assert physicality_threshold(0.4) == pytest.approx(0.7686, abs=1e-3)
    assert physicality_threshold(1.0) == pytest.approx(0.0, abs=1e-14)
    assert physicality_threshold(2.0) == pytest.approx(0.5 * np.log(np.sqrt(2.0) - 1.0), rel=1e-12)
    assert physicality_threshold(2.0) == pytest.approx(-0.4407, abs=1e-3)
    # Cross-check: alpha = 2 is physical even at t0 = 0.
    ch = quasi_eternal(2.0, 0.0)
    assert cptp_conditions(ch, 40.0)[0] >= -1e-9
    with pytest.raises(ValueError):
        physicality_threshold(0.0)
    # The log-space form keeps the direct closed form at alpha = 0.4.
    assert physicality_threshold(0.4) == pytest.approx(0.5 * np.log(2.0 ** 2.5 - 1.0), abs=1e-12)


@pytest.mark.parametrize("alpha", [1e-4, 5e-4, 0.4, 10.0])
def test_physicality_threshold_against_mpmath(alpha):
    # 2^(1/alpha) overflows a double for alpha below ~1/1024.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = float(mpmath.log(mpmath.power(2, 1 / mpmath.mpf(alpha)) - 1) / 2)
    assert physicality_threshold(alpha) == pytest.approx(exact, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
def test_physicality_threshold_rejects_bad_alpha(alpha):
    with pytest.raises(UnphysicalError):
        physicality_threshold(alpha)


def test_cptp_conditions():
    ch = quasi_eternal(0.4, 1.0)
    np.testing.assert_allclose(cptp_conditions(ch, 0.0), (0.0, 0.0, 0.0), atol=1e-12)
    for t in (0.5, 2.0, 8.0):
        b_xyz, b_yzx, b_zxy = cptp_conditions(ch, t)
        expected = 1.0 - np.exp(-0.8 * t)
        assert b_yzx == pytest.approx(expected, rel=1e-10)
        assert b_zxy == pytest.approx(expected, rel=1e-10)
        assert b_xyz >= -1e-9


def test_divisibility_rates():
    assert divisibility_rates(1.0, 1.0, 1.0) == {"cp": True, "p": True}
    ch = quasi_eternal(0.4, 1.0)
    gx, gy, gz = ch.rates(3.0)
    assert gz < 0
    assert divisibility_rates(gx, gy, gz) == {"cp": False, "p": True}
    assert divisibility_rates(1.0, 1.0, -3.0) == {"cp": False, "p": False}
    # Each Pauli family's own criterion, over a grid, against the rate oracle.
    grid = np.linspace(0.0, 5.0, 101)
    for family in (ch, depolarizing(lambda t: float(np.cos(t))), dephasing(lambda t: 0.5 - t)):
        value, cp, p = family.divisibility(grid)
        rates = family.rates(grid)
        flags = divisibility_rates(*rates)
        np.testing.assert_array_equal(value, np.min(rates, axis=0))
        np.testing.assert_array_equal(cp, flags["cp"])
        np.testing.assert_array_equal(p, flags["p"])
        assert not np.all(cp)


def test_cp_implies_p_random_diagonal_maps():
    rng = np.random.default_rng(20)
    for _ in range(10_000):
        lam = tuple(rng.uniform(-1.2, 1.2, size=3))
        qmap = AffineQubitMap(lam)
        cp = min_choi_eig(qmap) >= -1e-12
        p = max(abs(l) for l in lam) <= 1.0
        if cp:
            assert p


def test_is_cp_agrees_with_rate_criterion_on_short_intervals():
    rng = np.random.default_rng(21)
    ch = quasi_eternal(0.4, 1.0)
    dt = 1e-4
    for _ in range(200):
        t = float(rng.uniform(0.0, 4.0))
        min_rate = min(ch.rates(t))
        if abs(min_rate) < 1e-3:
            continue  # borderline: first-order criterion not conclusive
        cp = min_choi_eig(ch.intermediate(t, t + dt)) >= -1e-12
        assert cp == (min_rate > 0)


def test_rhp_g_zero_on_cp_region():
    ch = quasi_eternal(0.4, 2.0)
    for t in (0.2, 1.0, 1.8):
        assert abs(rhp_g(ch, t)) < 1e-6
    gadc = GadcChannel()
    assert abs(rhp_g(gadc, 0.05)) < 1e-6


def test_rhp_g_gadc_piecewise():
    gadc = GadcChannel()
    # Inside the first non-CP window g = -gamma_minus; afterwards where
    # gamma_plus < 0, g = -gamma_plus.
    for t in (0.16, 0.2, 0.28):
        gm, _ = gadc.rates(t)
        assert gm < 0
        assert rhp_g(gadc, t) == pytest.approx(-gm, abs=1e-4)
    t_plus = 0.45
    gm, gp = gadc.rates(t_plus)
    assert gp < 0 < gm
    assert rhp_g(gadc, t_plus) == pytest.approx(-gp, abs=1e-4)
    assert rhp_g(gadc, 0.2) >= -1e-8


def test_rhp_g_quasi_eternal_positive_past_t0():
    ch = quasi_eternal(0.4, 1.0)
    g = rhp_g(ch, 2.0)
    # First order in dt the Bell weights of V_{t+dt,t} are gamma_k dt, so
    # g = sum_k (|gamma_k| - gamma_k) = -2 gamma_z here.
    assert g > 0
    assert g == pytest.approx(-2.0 * ch.rates(2.0)[2], rel=1e-2)


def test_classify_intervals_cosine_dephasing():
    intervals = classify_intervals(np.cos, t_max=10.0, step=5e-3,
                                   channel=dephasing(lambda t: float(np.cos(t))))
    labels = [iv.label for iv in intervals]
    assert labels == [DivisibilityLabel.CP_DIVISIBLE, DivisibilityLabel.NOT_P,
                      DivisibilityLabel.CP_DIVISIBLE, DivisibilityLabel.NOT_P]
    bounds = [iv.t_end for iv in intervals[:-1]]
    np.testing.assert_allclose(bounds, [np.pi / 2, 3 * np.pi / 2, 5 * np.pi / 2], atol=1e-5)
    for a, b in zip(intervals[:-1], intervals[1:]):
        assert a.label is not b.label
        assert a.t_end == b.t_start


def test_classify_intervals_constant_rate():
    intervals = classify_intervals(lambda t: 0.7, t_max=4.0, step=0.1,
                                   channel=dephasing(ConstantRate(0.7)))
    assert len(intervals) == 1
    assert intervals[0].label is DivisibilityLabel.CP_DIVISIBLE
    assert (intervals[0].t_start, intervals[0].t_end) == (0.0, 4.0)


def test_classify_intervals_amp_damp_oracle():
    # G(t) = exp(-t/2)(1 + 0.4 sin 4t): gamma = -2 G'/G flips sign where
    # 1 = 3.2 cos(4t) / (1 + 0.4 sin 4t); compare against that closed form.
    def g(t):
        return float(np.exp(-t / 2) * (1 + 0.4 * np.sin(4 * t)))

    def dg(t):
        return float(np.exp(-t / 2) * (-0.5 * (1 + 0.4 * np.sin(4 * t)) + 1.6 * np.cos(4 * t)))

    ch = AmpDampChannel(g, p=0.3, dg_dt=dg)

    def gamma_oracle(t):
        return 1.0 - 3.2 * np.cos(4 * t) / (1 + 0.4 * np.sin(4 * t))

    intervals = classify_intervals(ch.gamma, t_max=3.0, step=5e-3, channel=ch)
    oracle = classify_intervals(gamma_oracle, t_max=3.0, step=5e-3, channel=ch)
    assert [iv.label for iv in intervals] == [iv.label for iv in oracle]
    np.testing.assert_allclose([iv.t_start for iv in intervals],
                               [iv.t_start for iv in oracle], atol=1e-5)


def test_classify_intervals_with_channel_check():
    import warnings
    ch = dephasing(lambda t: float(np.cos(t)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        intervals = classify_intervals(lambda t: float(np.cos(t)), t_max=4.0, step=0.05,
                                       channel=ch)
    assert [iv.label for iv in intervals] == [DivisibilityLabel.CP_DIVISIBLE,
                                              DivisibilityLabel.NOT_P]


@pytest.mark.parametrize("t_max, step", [(np.inf, 0.5), (np.nan, 0.5), (0.0, 0.5), (-1.0, 0.5),
                                         (4.0, np.inf), (4.0, np.nan), (4.0, 0.0), (4.0, -0.1)])
def test_classify_intervals_rejects_bad_bounds(t_max, step):
    # An infinite t_max used to scan forever, and a NaN step to fail in the
    # intermediate map.
    with pytest.raises(BadIntervalError, match="need finite t_max > 0 and step > 0"):
        classify_intervals(lambda t: 0.5, t_max=t_max, step=step,
                           channel=dephasing(ConstantRate(0.5)))


def test_classify_intervals_caps_the_scan():
    # The step count is checked before the rate is evaluated at all.
    cap = divisibility._MAX_SCAN_POINTS

    def gamma(t):
        pytest.fail("the rate was evaluated")

    with pytest.raises(BadIntervalError, match=f"t_max / step <= {cap}"):
        classify_intervals(gamma, t_max=1.0, step=1.0 / (cap + 1),
                           channel=dephasing(ConstantRate(0.5)))
    intervals = classify_intervals(lambda t: 0.5, t_max=1.0, step=1.0 / cap,
                                   channel=dephasing(ConstantRate(0.5)))
    assert [iv.label for iv in intervals] == [DivisibilityLabel.CP_DIVISIBLE]


def test_choi_zero_eigenvalue_derivative_sign_law():
    # For dephasing with gamma(t) != 0, the initially-zero Choi eigenvalue of
    # V_{t+delta,t} moves with sign equal to sign(gamma(t)).
    delta = 1e-6
    for gamma_val, t in ((0.8, 0.3), (-0.6, 1.1), (1.5, 2.0), (-0.2, 0.05)):
        ch = dephasing(ConstantRate(gamma_val))
        c = channels.choi(ch.intermediate(t, t + delta), 2)
        eigs = np.sort(np.linalg.eigvalsh((c + c.conj().T) / 2))
        # Spectrum at delta = 0 is (0, 0, 0, 2); three eigenvalues start at zero.
        derivs = eigs[:3] / delta
        moving = derivs[np.argmax(np.abs(derivs))]
        assert abs(moving) > 0.1 * abs(gamma_val)
        assert np.sign(moving) == np.sign(gamma_val)


def test_single_parameter_mi_sign_law():
    # Single-parameter evolutions: sign(dI/dt) = -sign(gamma(t)) whenever the
    # derivative is nonzero, for any state.
    rng = np.random.default_rng(22)
    delta = 1e-5
    cases = []
    for gamma_val in (0.9, -0.7):
        cases.append((dephasing(ConstantRate(gamma_val)), gamma_val))
        cases.append((depolarizing(ConstantRate(gamma_val)), gamma_val))
    for ch, gamma_val in cases:
        count = 0
        for _ in range(100):
            rho = random_density(rng, 4)
            t = float(rng.uniform(0.1, 1.0)) if gamma_val > 0 else 0.0
            v_fwd = ch.intermediate(t, t + delta)
            rho_t = channels.apply_map(ch.as_affine(t), rho, (2, 2)) if t > 0 else rho
            i_now = mutual_information(rho_t, (2, 2))
            i_next = mutual_information(channels.apply_map(v_fwd, rho_t, (2, 2)), (2, 2))
            deriv = (i_next - i_now) / delta
            if abs(deriv) > 1e-9:
                count += 1
                assert np.sign(deriv) == -np.sign(gamma_val)
        assert count > 50  # most random states have a nonzero derivative
