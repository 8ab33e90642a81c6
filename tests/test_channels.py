from math import prod

import numpy as np
import pytest

from helpers import (OperatorBasis, apply_kraus, bell_weights, gadc_generator_ops, gadc_kraus,
                     operator_basis, random_density, random_kraus)
from nmflow import channels, qmat
from nmflow.channels import (
    AffineQubitMap,
    AmpDampChannel,
    CallableRate,
    ConstantRate,
    GadcChannel,
    KrausChannel,
    RateChannel,
    TabulatedRate,
    apply_map,
    channel_from_json,
    choi,
    dephasing,
    depolarizing,
    quasi_eternal,
)
from nmflow.errors import (
    BadIntervalError,
    ConfigParseError,
    SingularMapError,
    UnphysicalError,
)
from nmflow.numutil import bisect_root
from nmflow.qmat import SIGMA_X, SIGMA_Z, maximally_entangled


def superop_matrix(qmap) -> np.ndarray:
    """The superoperator as a (..., 4, 4) matrix acting on vec(rho)."""
    k = qmap.superop
    return k.reshape(k.shape[:-4] + (4, 4))


def after(outer, inner) -> np.ndarray:
    """The superoperator matrix of outer after inner."""
    return superop_matrix(outer) @ superop_matrix(inner)


def transfer(qmap, basis: OperatorBasis) -> np.ndarray:
    """Components V_ij = Tr[e_i (1 (x) Lambda)(e_j)] / prod(dims).

    The map acts on the last subsystem of the basis; trace preservation forces
    V_00 = 1 and V_0j = 0 for j != 0.
    """
    dims = basis.dims
    n = basis.size
    v = np.zeros((n, n))
    for j, ej in enumerate(basis.elements):
        mapped = apply_map(qmap, ej, dims, subsystem=len(dims) - 1)
        for i, ei in enumerate(basis.elements):
            v[i, j] = float(np.real(np.trace(ei @ mapped))) / basis.total_dim
    return v


# as_affine(t).lambdas = (A_yz, A_zx, A_xy), A_ij = exp(-2 int_0^t (gamma_i + gamma_j)).

def test_a_ij_initial_value():
    ch = quasi_eternal(0.4, 2.0)
    assert ch.as_affine(0.0).lambdas == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)


def test_a_xy_closed_form():
    ch = quasi_eternal(0.4, 2.0)
    assert ch.as_affine(1.0).lambdas[2] == pytest.approx(np.exp(-0.8), rel=1e-12)
    for t in (0.3, 1.7, 5.0):
        assert ch.as_affine(t).lambdas[2] == pytest.approx(np.exp(-2 * 0.4 * t), rel=1e-12)


def test_a_yz_closed_form():
    alpha, t0 = 0.4, 2.0
    ch = quasi_eternal(alpha, t0)
    for t in (0.5, 2.0, 4.0, 9.0):
        expected = (np.exp(-t) * np.cosh(t - t0) / np.cosh(t0)) ** alpha
        ayz, azx, _ = ch.as_affine(t).lambdas
        assert ayz == pytest.approx(expected, rel=1e-11)
        assert azx == pytest.approx(expected, rel=1e-11)


def test_lambdas():
    # The square roots of the map's lambdas, in which the quasi-eternal family
    # reads lambda_z(t) = exp(-alpha t), as the probe construction does.
    alpha, t0 = 0.4, 2.0
    ch = quasi_eternal(alpha, t0)
    assert np.sqrt(ch.as_affine(0.0).lambdas) == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)
    for t in (0.7, 3.0):
        lx, ly, lz = np.sqrt(ch.as_affine(t).lambdas)
        assert lz == pytest.approx(np.exp(-alpha * t), rel=1e-12)
        assert lx == pytest.approx(ly, rel=1e-14)
        assert lx == pytest.approx((np.exp(-t) * np.cosh(t - t0) / np.cosh(t0)) ** (alpha / 2),
                                   rel=1e-11)
    # Past t0 the transverse components dominate the longitudinal one.
    for tau in (2.5, 3.0, 4.0):
        lx, _, lz = ch.as_affine(tau).lambdas
        assert lx > lz


def test_contractions_are_squared_lambdas():
    # The map's lambdas are the contraction factors A_jk, whose square roots
    # read lambda_z = exp(-alpha t); they reproduce the mixing weights of the
    # random-unitary form, half the Choi eigenvalues.
    alpha, t0 = 0.4, 2.0
    ch = quasi_eternal(alpha, t0)
    assert ch.as_affine(1.0).lambdas[2] == pytest.approx(np.exp(-2 * alpha), rel=1e-12)
    for t in (0.5, 2.0):
        cx, cy, cz = ch.as_affine(t).lambdas
        p = bell_weights(ch, t)
        assert p[0] == pytest.approx(0.25 * (1 + cx + cy + cz), abs=1e-12)
        assert p[3] == pytest.approx(0.25 * (1 - cx - cy + cz), abs=1e-12)
        spectrum = np.linalg.eigvalsh(choi(ch.as_affine(t), 2)) / 2.0
        np.testing.assert_allclose(spectrum, np.sort(p), atol=1e-14)


def test_apply_identity_map():
    rng = np.random.default_rng(10)
    rho = random_density(rng, 4)
    out = apply_map(AffineQubitMap((1.0, 1.0, 1.0)), rho, (2, 2))
    np.testing.assert_allclose(out, rho, atol=1e-15)


def test_apply_stationary_state_exact():
    rng = np.random.default_rng(11)
    ch = quasi_eternal(0.4, 2.0)
    rho_a = random_density(rng, 2)
    rho = np.kron(rho_a, np.eye(2) / 2)
    out = apply_map(ch.as_affine(3.0), rho, (2, 2))
    np.testing.assert_allclose(out, rho, atol=1e-15)


def test_apply_dephasing_on_plus_state():
    ch = dephasing(ConstantRate(0.7))
    rho0 = 0.5 * (np.eye(2) + SIGMA_X)
    t = 1.3
    out = apply_map(ch.as_affine(t), rho0, (2,))
    expected = 0.5 * (np.eye(2) + np.exp(-0.7 * t) * SIGMA_X)
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_intermediate_identity_at_equal_times():
    ch = quasi_eternal(0.4, 1.0)
    v = ch.intermediate(1.5, 1.5)
    assert v.lambdas == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)
    with pytest.raises(BadIntervalError):
        ch.intermediate(2.0, 1.0)


def test_dephasing_intermediate_preserves_sigma_z():
    ch = dephasing(ConstantRate(0.9))
    v = ch.intermediate(0.4, 2.2)
    np.testing.assert_allclose(apply_map(v, SIGMA_Z, (2,)), SIGMA_Z, atol=1e-14)
    assert v.lambdas[2] == pytest.approx(1.0, abs=1e-14)


def test_quasi_eternal_shift_property():
    # With alpha fixed, V_{t, dt0} of the t0'' model equals Lambda_{t - dt0}
    # of the t0' model, dt0 = t0'' - t0'.
    t0p, t0pp = 1.0, 4.0
    dt0 = t0pp - t0p
    chp = quasi_eternal(0.4, t0p)
    chpp = quasi_eternal(0.4, t0pp)
    for t in (3.5, 4.5, 6.0):
        v = chpp.intermediate(dt0, t)
        lam = chp.as_affine(t - dt0).lambdas
        assert v.lambdas == pytest.approx(lam, rel=1e-11)


def _raises_unphysical(fn, t) -> bool:
    try:
        fn(t)
    except UnphysicalError:
        return True
    return False


def test_semigroup_consistency_random_pairs():
    # Lambda_s = V_{s,t} Lambda_t holds for the raw contraction factors, those
    # of V_{t,0}, also where Lambda_t is not CPTP, as for dephasing at rate
    # cos(1.7 t) on about (1.85, 3.70); as_affine raises exactly where a mixing
    # weight of the raw factors is below -PROB_SLACK.
    rng = np.random.default_rng(12)
    knots = np.linspace(0.0, 6.0, 25)
    tab = TabulatedRate(tuple((float(t), float(np.cos(1.7 * t))) for t in knots))
    cases = [quasi_eternal(0.4, 1.0), quasi_eternal(1.0, 0.0), dephasing(tab)]
    unphysical = []
    for ch in cases:
        def raw(t):
            return ch.intermediate(0.0, t)

        for _ in range(500):
            t = float(rng.uniform(0.0, 5.0))
            s = t + float(rng.uniform(0.0, 1.0))
            np.testing.assert_allclose(after(ch.intermediate(t, s), raw(t)),
                                       superop_matrix(raw(s)), atol=1e-10)
            for u in (t, s):
                bad = min(channels._bell_weights(1.0, *raw(u).lambdas)) < -channels.PROB_SLACK
                assert _raises_unphysical(ch.as_affine, u) == bad
                if not bad:
                    assert ch.as_affine(u) == raw(u)
                unphysical.append(bad)
    assert 0 < sum(unphysical) < len(unphysical)


def test_probs_initial_and_closed_form():
    ch = quasi_eternal(0.4, 1.0)
    assert bell_weights(ch, 0.0) == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-14)
    for t in (0.5, 1.5, 3.0):
        p = bell_weights(ch, t)
        assert p[1] == pytest.approx(0.25 * (1 - np.exp(-0.8 * t)), rel=1e-11)
        assert p[2] == pytest.approx(p[1], rel=1e-12)
        assert sum(p) == pytest.approx(1.0, abs=1e-12)


def test_probs_derivative_matches_finite_difference():
    ch = quasi_eternal(0.4, 1.0)
    h = 1e-6
    for t in (0.3, 1.2, 2.8):
        dp = np.array(ch.probs_derivative(t))
        fd = (np.array(bell_weights(ch, t + h)) - np.array(bell_weights(ch, t - h))) / (2 * h)
        np.testing.assert_allclose(dp, fd, atol=1e-8)


def test_dp_z_sign_change_location():
    ch = quasi_eternal(0.4, 1.0)
    root = bisect_root(lambda t: ch.probs_derivative(t)[3], 1.0, 2.0, tol=1e-4)
    assert root == pytest.approx(1.3254, abs=1e-3)
    assert ch.probs_derivative(1.2)[3] > 0
    assert ch.probs_derivative(1.5)[3] < 0


def test_probs_unphysical_raises():
    # alpha = 2/5, t0 = 0 sits below the physicality threshold ~0.769.
    ch = quasi_eternal(0.4, 0.0)
    with pytest.raises(UnphysicalError):
        ch.as_affine(20.0)


@pytest.mark.parametrize("ch", [
    quasi_eternal(0.4, 1.0), depolarizing(0.3),
    dephasing(TabulatedRate(((0.0, 1.0), (5.0, -0.3)))),
    RateChannel(ConstantRate(0.1), ConstantRate(0.3), ConstantRate(0.2)),
])
def test_probs_over_an_array_matches_per_time(ch):
    grid = np.linspace(0.0, 5.0, 101)
    stacked = bell_weights(ch, grid)
    assert len(stacked) == 4 and all(np.shape(p) == grid.shape for p in stacked)
    per_time = np.array([bell_weights(ch, float(t)) for t in grid]).T
    np.testing.assert_allclose(np.array(stacked), per_time, rtol=0, atol=1e-15)
    assert all(isinstance(p, float) for p in bell_weights(ch, 1.0))


def test_probs_over_an_array_raises_on_any_negative_weight():
    # t0 = 0.5 lies below the physicality threshold ~0.769: p_z turns
    # negative near t = 1.97 and keeps falling. The weights come from
    # as_affine, which holds the check.
    ch = quasi_eternal(0.4, 0.5)
    for at in (ch.as_affine, lambda t: bell_weights(ch, t)):
        at(np.array([0.0, 1.0, 1.9]))
        with pytest.raises(UnphysicalError, match="at t = 20.0"):
            at(np.array([0.0, 1.0, 20.0, 1.9]))
        with pytest.raises(UnphysicalError, match="at t = 20.0"):
            at(20.0)
        # The first negative time on the grid, not the most negative weight.
        with pytest.raises(UnphysicalError, match=r"-2\.663e-05 < 0 at t = 1\.966:"):
            at(np.array([0.0, 1.9, 1.966, 20.0]))


@pytest.mark.parametrize("channel", [
    quasi_eternal(0.4, 1.0), dephasing(TabulatedRate(((0.0, 1.0), (5.0, -0.3)))), GadcChannel(),
    channel_from_json({"family": "amp_damp", "p": 0.3, "G": [[0, 1], [2, 0.4]]}),
], ids=["quasi_eternal", "tabulated dephasing", "gadc", "amp_damp"])
def test_as_affine_rejects_nan_times(channel):
    # A NaN time gave a NaN map: NaN < -PROB_SLACK and a NaN G passed.
    for t in (np.nan, np.array([np.nan]), np.array([0.5, np.nan, 1.0])):
        with pytest.raises(UnphysicalError):
            channel.as_affine(t)
    channel.as_affine(np.array([0.0, 0.5, 1.0]))


def test_rate_channel_names_the_first_nan_or_negative_weight():
    # t0 = 0.5 lies below the physicality threshold: p_z < 0 at t = 20. The
    # message names the first failing time, a NaN one included.
    ch = quasi_eternal(0.4, 0.5)
    with pytest.raises(UnphysicalError, match=r"mixing weight nan < 0 at t = nan:"):
        ch.as_affine(np.nan)
    with pytest.raises(UnphysicalError, match=r"nan < 0 at t = nan:"):
        ch.as_affine(np.array([0.0, np.nan, 20.0]))
    with pytest.raises(UnphysicalError, match=r"< 0 at t = 20\.0:"):
        ch.as_affine(np.array([0.0, 20.0, np.nan]))


def test_gadc_rejects_negative_times():
    # Before t = 0, G = exp(-t/2) exceeds 1: at t = -1 the lambdas were
    # (1.65, 1.65, 2.72), not a CPTP map.
    gadc = GadcChannel()
    for t in (-1.0, -1e-3, np.array([-1.0]), np.array([0.0, 0.2, -1e-3])):
        with pytest.raises(UnphysicalError, match="G must lie in"):
            gadc.as_affine(t)
    assert gadc.as_affine(-0.0).lambdas == (1.0, 1.0, 1.0)
    assert gadc.as_affine(np.array([])).transfer.shape == (0, 7)


def test_gadc_kraus_identity_at_zero():
    k = gadc_kraus(0.0)
    np.testing.assert_allclose(k.kraus[0], np.eye(2), atol=1e-14)
    for op in k.kraus[1:]:
        np.testing.assert_allclose(op, 0.0, atol=1e-14)


def test_gadc_kraus_completeness():
    for t in np.linspace(0.0, 2.0, 41):
        k = gadc_kraus(float(t))
        comp = sum(op.conj().T @ op for op in k.kraus)
        np.testing.assert_allclose(comp, np.eye(2), atol=1e-10)


def test_gadc_rates():
    gadc = GadcChannel()
    gm0, gp0 = gadc.rates(0.0)
    assert gm0 == pytest.approx(1.0, abs=1e-14)
    assert gp0 == pytest.approx(0.0, abs=1e-14)
    for t in np.linspace(0.0, 3.0, 31):
        gm, gp = gadc.rates(float(t))
        assert gm + gp == pytest.approx(1.0, abs=1e-12)


def test_gadc_gamma_minus_first_roots():
    gadc = GadcChannel()
    f = lambda t: gadc.rates(t)[0]
    r1 = bisect_root(f, 0.05, 0.2, tol=1e-8)
    r2 = bisect_root(f, 0.25, 0.35, tol=1e-8)
    assert r1 == pytest.approx(0.13437, abs=5e-4)
    assert r2 == pytest.approx(0.31416, abs=5e-4)


def test_gad_rates_against_mpmath():
    # The GAD rate law gamma_minus = p Gamma + p' (1 - G^2) on the GADC profile,
    # against 40-digit gamma_minus = cos^2(5t) - 5 (1 - e^-t) sin(10t) and
    # gamma_plus = 1 - gamma_minus. The budget is the rounding of 10 t (up to
    # 1.8e-15 at t = 3), on which 5 sin(10 t) turns at rate 50.
    mpmath = pytest.importorskip("mpmath")
    grid = np.linspace(0.0, 3.0, 3001)
    gm, gp = GadcChannel().rates(grid)
    with mpmath.workdps(40):
        exact = [mpmath.cos(5 * t) ** 2 - 5 * (1 - mpmath.exp(-t)) * mpmath.sin(10 * t)
                 for t in map(mpmath.mpf, grid.tolist())]
        exact_plus = [float(1 - e) for e in exact]
        exact = [float(e) for e in exact]
    np.testing.assert_allclose(gm, exact, rtol=0, atol=2e-14)
    np.testing.assert_allclose(gp, exact_plus, rtol=0, atol=2e-14)


def test_gadc_kraus_matches_affine():
    gadc = GadcChannel()
    rng = np.random.default_rng(13)
    for t in (0.1, 0.37, 1.1):
        rho = random_density(rng, 2)
        via_kraus = apply_map(gadc_kraus(t), rho, (2,))
        via_affine = apply_map(gadc.as_affine(t), rho, (2,))
        np.testing.assert_allclose(via_kraus, via_affine, atol=1e-12)


def test_gadc_generator_rk4_agrees_with_kraus():
    # Time-stepping the generator with rates (gamma_-, gamma_+) must match the
    # Kraus map within 1e-5 trace distance on [0, 0.5], away from s(t) in {0,1}.
    gadc = GadcChannel()
    low, up = gadc_generator_ops()

    def dissipator(op, rho):
        k = op.conj().T @ op
        return op @ rho @ op.conj().T - 0.5 * (k @ rho + rho @ k)

    def rhs(t, rho):
        gm, gp = gadc.rates(t)
        return gm * dissipator(low, rho) + gp * dissipator(up, rho)

    rng = np.random.default_rng(14)
    rho = random_density(rng, 2)
    checkpoints = {0.1, 0.2, 0.45, 0.5}
    h = 1e-4
    t, current = 0.0, rho.copy()
    steps = int(round(0.5 / h))
    for n in range(steps):
        k1 = rhs(t, current)
        k2 = rhs(t + h / 2, current + h / 2 * k1)
        k3 = rhs(t + h / 2, current + h / 2 * k2)
        k4 = rhs(t + h, current + h * k3)
        current = current + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = (n + 1) * h
        if round(t, 10) in checkpoints:
            target = apply_map(gadc_kraus(t), rho, (2,))
            dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(current - target)))
            assert dist < 1e-5


def constant_g(g, p=0.3) -> AmpDampChannel:
    """Amplitude damping with the flat profile G(t) = g."""
    return AmpDampChannel(lambda t: g, p=p, dg_dt=0.0)


def test_amp_damp_map_values():
    m = constant_g(1.0).as_affine(0.7)
    assert m.lambdas == pytest.approx((1.0, 1.0, 1.0))
    assert m.translation == pytest.approx((0.0, 0.0, 0.0))
    g, p = 0.6, 0.8
    m = constant_g(g, p).as_affine(0.7)
    assert m.lambdas == pytest.approx((g, g, g * g))
    assert m.translation[2] == pytest.approx((2 * p - 1) * (1 - g * g))


def test_amp_damp_gamma_constant_for_exponential():
    # G(t) = exp(-t/2) gives gamma = -2 G'/G = 1 identically.
    ch = AmpDampChannel(lambda t: float(np.exp(-t / 2)), p=0.3,
                        dg_dt=lambda t: float(-0.5 * np.exp(-t / 2)))
    for t in (0.0, 0.1, 0.5, 1.0, 2.0, 2.5):
        assert ch.gamma(t) == pytest.approx(1.0, rel=1e-12)
    # Only a tabulated G has an exact slope of its own; no slope is guessed.
    with pytest.raises(ConfigParseError):
        AmpDampChannel(lambda t: float(np.exp(-t / 2)), p=0.3)


def test_amp_damp_gamma_over_arrays():
    # Elementwise over arrays, with the G = 0 check on scalars and on any entry.
    # The table's G is 1, 0.5 and 0.25 at t = 0, 1 and 2, with slopes -0.5,
    # -0.25 and then 0 (flat past the last knot).
    table = AmpDampChannel(TabulatedRate(((0.0, 1.0), (1.0, 0.5), (2.0, 0.25))), p=0.3)
    ts = np.array([0.0, 1.0, 2.0, 2.5])
    np.testing.assert_array_equal(table.gamma(ts), [table.gamma(float(t)) for t in ts])
    np.testing.assert_array_equal(table.gamma(ts), [1.0, 1.0, 0.0, 0.0])
    assert str(table.gamma(2.5)) == "0.0"  # flat G: +0.0, not -0.0
    assert str(constant_g(0.5).gamma(1.0)) == "0.0"
    # Where G = 0 and is flat, Lambda is the constant map and Gamma is +0.0;
    # where G = 0 and moves, Gamma has no value.
    assert str(constant_g(0.0).gamma(1.0)) == "0.0"
    ramp = AmpDampChannel(lambda t: max(0.0, 1.0 - t), p=0.5, dg_dt=RAMP_SLOPE)
    np.testing.assert_array_equal(ramp.gamma(np.array([0.5, 1.0, 2.0])), [4.0, 0.0, 0.0])
    assert str(ramp.gamma(np.array([1.0]))[0]) == "0.0"
    revival = channel_from_json({"family": "amp_damp", "p": 0.3,
                                 "G": [[0, 1], [1, 0], [2, 0.5], [3, 0]]})
    np.testing.assert_array_equal(revival.gamma(np.array([3.0, 4.0])), [0.0, 0.0])
    for t in (1.0, np.array([0.5, 1.0])):  # G = 0 at t = 1, rising at slope 0.5
        with pytest.raises(SingularMapError):
            revival.gamma(t)
    with pytest.raises(SingularMapError):
        AmpDampChannel(lambda t: max(0.0, 1.0 - t), p=0.5, dg_dt=-1.0).gamma(1.0)
    ch = AmpDampChannel(lambda t: float(np.exp(-t / 2)), p=0.3,
                        dg_dt=lambda t: float(-0.5 * np.exp(-t / 2)))
    ts = np.array([0.1, 1.0, 2.5])
    np.testing.assert_array_equal(ch.gamma(ts), [ch.gamma(float(t)) for t in ts])


@pytest.mark.parametrize("g", [1.5, -0.2, np.nan])
def test_amp_damp_rejects_g_outside_unit_interval(g):
    with pytest.raises(UnphysicalError):
        constant_g(g).as_affine(0.5)
    with pytest.raises(UnphysicalError):
        AmpDampChannel(lambda t: g if t > 1.0 else 0.5, p=0.3, dg_dt=0.0).as_affine(
            np.array([0.5, 1.5]))


# Slopes of G(t) = |1 - t| and of G(t) = max(0, 1 - t).
V_SLOPE = lambda t: -float(np.sign(1.0 - t))
RAMP_SLOPE = lambda t: -1.0 if t < 1.0 else 0.0


@pytest.mark.parametrize("p", [-0.1, 1.5, np.nan, np.inf])
def test_amp_damp_rejects_p_outside_unit_interval(p):
    with pytest.raises(UnphysicalError):
        AmpDampChannel(lambda t: 1.0, p=p, dg_dt=0.0)


def test_amp_damp_singular():
    # Lambda_t at G(t) = 0 is many-to-one: the constant map to Bloch z = 2p - 1,
    # as in GADC. Its intermediate maps follow test_gad_intermediate_singular_rule.
    ch = channel_from_json({"family": "amp_damp", "p": 0.3, "G": [[0, 1], [2, 0]]})
    m = ch.as_affine(2.5)
    assert m.lambdas == (0.0, 0.0, 0.0)
    assert m.translation == pytest.approx((0.0, 0.0, -0.4), rel=0, abs=1e-15)
    m = AmpDampChannel(lambda t: abs(1.0 - t), p=0.5, dg_dt=V_SLOPE).as_affine(np.array([0.5, 1.0]))
    np.testing.assert_array_equal(m.lambdas, [[0.5, 0.0], [0.5, 0.0], [0.25, 0.0]])
    np.testing.assert_array_equal(m.translation[2], [0.0, 0.0])


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_amp_damp_rates_follow_the_gad_law(p):
    # For a fixed p the GAD rates are p Gamma and (1 - p) Gamma, so both are
    # >= 0 exactly where Gamma is: the CP flag of divisibility, here on the
    # grid of divisibility-scan.
    ch = AmpDampChannel(TabulatedRate(((0.0, 1.0), (1.0, 0.5), (2.0, 0.7), (3.0, 0.3))), p=p)
    grid = np.arange(0.0, 5.0 + 5e-4, 1e-3)
    gm, gp = ch.rates(grid)
    gamma, cp, _ = ch.divisibility(grid)
    np.testing.assert_array_equal(gm, p * gamma)
    np.testing.assert_array_equal(gp, (1.0 - p) * gamma)
    np.testing.assert_array_equal((gm >= 0.0) & (gp >= 0.0), cp)
    assert cp.any() and not cp.all()


def test_gad_intermediate_singular_rule():
    # One rule for both GAD families: where G(t)^2 = 0, V_{s,t} is the
    # identity if Lambda_t = Lambda_s (G(t) = G(s) = 0 with equal shifts) and
    # does not exist otherwise.
    flat = AmpDampChannel(lambda t: max(0.0, 1.0 - t), p=0.3, dg_dt=RAMP_SLOPE)
    v = flat.intermediate(np.array([1.0, 1.2]), np.array([1.5, 2.0]))
    np.testing.assert_array_equal(v.lambdas, np.ones((3, 2)))
    np.testing.assert_array_equal(v.translation[2], [0.0, 0.0])
    cases = [
        (AmpDampChannel(lambda t: abs(1.0 - t), p=0.3, dg_dt=V_SLOPE), 1.0, 1.5),  # G(t) = 0 < G(s)
        (constant_g(1e-200), 0.0, 1.0),  # G(t) > 0 but G(t)^2 underflows
        (GadcChannel(), 800.0, 800.5),  # G(t) = e^-400, G(t)^2 = 0
        (GadcChannel(), 1500.0, 1500.5),  # G(t) = G(s) = 0, but p(t) != p(s)
        (GadcChannel(), np.array([0.5, 800.0]), np.array([1.0, 800.5])),  # one entry fails all
    ]
    for ch, t, s in cases:
        with pytest.raises(SingularMapError):
            ch.intermediate(t, s)


def test_amp_damp_intermediate_composition():
    ch = TIME_FAMILIES["amp_damp, callable G"]
    rng = np.random.default_rng(15)
    for _ in range(50):
        t = float(rng.uniform(0.0, 2.0))
        s = t + float(rng.uniform(0.0, 1.0))
        np.testing.assert_allclose(after(ch.intermediate(t, s), ch.as_affine(t)),
                                   superop_matrix(ch.as_affine(s)), atol=1e-12)


def test_transfer_identity_and_pauli_channel():
    basis = operator_basis((2,))
    np.testing.assert_allclose(transfer(AffineQubitMap((1.0, 1.0, 1.0)), basis), np.eye(4),
                               atol=1e-13)
    lam = (0.9, 0.5, 0.2)
    v = transfer(AffineQubitMap(lam), basis)
    np.testing.assert_allclose(v, np.diag((1.0,) + lam), atol=1e-13)
    assert v[0, 0] == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(v[0, 1:], 0.0, atol=1e-14)


def test_transfer_with_ancilla():
    basis = operator_basis((2, 2))
    lam = (0.7, 0.6, 0.42)
    v = transfer(AffineQubitMap(lam), basis)
    # Block structure: ancilla index is untouched, system Paulis scale by lam.
    expected = np.kron(np.eye(4), np.diag((1.0,) + lam))
    np.testing.assert_allclose(v, expected, atol=1e-12)


def test_transfer_non_unital_trace_preservation():
    # Trace preservation forces the first row to (1, 0, 0, 0); the affine
    # translation shows up in the first column instead.
    gadc = GadcChannel()
    basis = operator_basis((2,))
    v = transfer(gadc.as_affine(0.3), basis)
    assert v[0, 0] == pytest.approx(1.0, abs=1e-13)
    np.testing.assert_allclose(v[0, 1:], 0.0, atol=1e-13)
    s, r = np.cos(1.5) ** 2, np.exp(-0.3)
    assert v[3, 0] == pytest.approx((2 * s - 1) * (1 - r), rel=1e-12)
    np.testing.assert_allclose(np.diag(v)[1:], (np.sqrt(r), np.sqrt(r), r), rtol=1e-12)


def test_choi_identity():
    c = choi(AffineQubitMap((1.0, 1.0, 1.0)), 2)
    np.testing.assert_allclose(c, 2.0 * qmat.maximally_entangled(2), atol=1e-13)


def test_choi_dephasing_intermediate_spectrum():
    # Oracle: the Choi matrix of a dephasing intermediate map assembles as
    # E00 (x) E00 + E11 (x) E11 + q (E01 (x) E01 + E10 (x) E10), q = exp(-int gamma),
    # whose spectrum is {1 + q, 1 - q, 0, 0}.
    ch = dephasing(ConstantRate(-0.8))
    t, s = 0.5, 1.25
    q = np.exp(0.8 * (s - t))
    explicit = np.zeros((4, 4), dtype=complex)
    explicit[0, 0] = explicit[3, 3] = 1.0
    explicit[0, 3] = explicit[3, 0] = q
    vals_oracle = np.sort(np.linalg.eigvalsh(explicit))
    c = choi(ch.intermediate(t, s), 2)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(c)), vals_oracle, atol=1e-12)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(c)), np.sort([0.0, 0.0, 1 - q, 1 + q]),
                               atol=1e-12)


def test_physicality_grid():
    # For t0 >= T^(alpha) all three CPTP combinations stay nonnegative out to t = 50.
    t_crit = 0.5 * np.log(2 ** 2.5 - 1)
    for alpha, t0 in ((0.4, t_crit), (0.4, 2.0), (0.7, 0.4), (1.0, 0.0), (2.0, 0.0)):
        ch = quasi_eternal(alpha, t0)
        for t in np.geomspace(1e-3, 50.0, 60):
            ayz, axz, axy = ch.as_affine(t).lambdas
            b = (1 + axy - ayz - axz, 1 + ayz - axz - axy, 1 + axz - axy - ayz)
            assert min(b) >= -1e-9


def test_kraus_completeness_validation():
    with pytest.raises(UnphysicalError):
        KrausChannel((np.eye(2) * 0.9,))


def test_channel_from_json():
    ch = channel_from_json({"family": "quasi_eternal", "alpha": 0.4, "t0": 2.0})
    assert ch.as_affine(1.0).lambdas[2] == pytest.approx(np.exp(-0.8), rel=1e-12)
    assert isinstance(channel_from_json('{"family": "gadc"}'), GadcChannel)
    deph = channel_from_json({"family": "dephasing", "gamma": [[0.0, 1.0], [5.0, 1.0]]})
    assert deph.as_affine(2.0).lambdas[0] == pytest.approx(np.exp(-2.0), rel=1e-9)
    ad = channel_from_json({"family": "amp_damp", "p": 0.3,
                            "G": [[0.0, 1.0], [1.0, 0.6], [2.0, 0.4]]})
    assert ad.as_affine(1.0).lambdas[0] == pytest.approx(0.6, rel=1e-12)
    for bad in ({"family": "nope"}, {"alpha": 1.0}, "not json {"):
        with pytest.raises(ConfigParseError):
            channel_from_json(bad)


def test_apply_map_kraus_on_subsystem():
    # 1 (x) Lambda with Lambda from Kraus operators equals the affine route.
    gadc = GadcChannel()
    rng = np.random.default_rng(16)
    rho = random_density(rng, 4)
    t = 0.23
    out_k = apply_map(gadc_kraus(t), rho, (2, 2), subsystem=1)
    out_a = apply_map(gadc.as_affine(t), rho, (2, 2), subsystem=1)
    np.testing.assert_allclose(out_k, out_a, atol=1e-12)
    assert np.trace(out_k) == pytest.approx(1.0, abs=1e-10)


def test_tabulated_rate_integral_is_exact():
    # Knots (0, 1), (1, 3), (2, -1), (4, 0); the rate is clamped to 1 before
    # t = 0 and to 0 after t = 4. Areas by hand: 1 on [-1, 0], 2 on [0, 1],
    # 1 on [1, 2], -1 on [2, 4], 0 on [4, 5].
    rate = TabulatedRate(((2.0, -1.0), (0.0, 1.0), (4.0, 0.0), (1.0, 3.0)))
    assert rate.integral(-1.0, 5.0) == pytest.approx(3.0, abs=1e-14)
    # g(0.5) = 2 and g(3) = -0.5: 1.25 + 1 - 0.75 across three knots.
    assert rate.integral(0.5, 3.0) == pytest.approx(1.5, abs=1e-14)
    assert rate.integral(1.25, 1.75) == pytest.approx(0.5, abs=1e-14)  # g = 2 -> 0
    assert rate.integral(-3.0, -1.0) == pytest.approx(2.0, abs=1e-14)
    assert rate.integral(2.5, 2.5) == 0.0


def _embedded(kraus, dims, subsystem):
    pre = np.eye(prod(dims[:subsystem]))
    post = np.eye(prod(dims[subsystem + 1:]))
    return [np.kron(np.kron(pre, k), post) for k in kraus]


@pytest.mark.parametrize("dims, subsystem", [
    ((2, 2), 0), ((2, 2), 1), ((3, 2), 1), ((2, 6), 1), ((2, 2, 2), 1),
])
def test_superop_kernel_matches_dense_kraus_sum(dims, subsystem):
    # Reference: the Kraus sum on the full space with each Kraus operator
    # embedded by np.kron. Affine maps (with a translation) are checked
    # through the GADC, whose Kraus operators are known.
    rng = np.random.default_rng(17)
    d = dims[subsystem]
    maps = []
    for _ in range(3):
        ops = random_kraus(rng, d)
        maps.append((KrausChannel(ops), ops))
    if d == 2:
        gadc = GadcChannel()
        maps += [(gadc.as_affine(t), gadc_kraus(t).kraus) for t in (0.1, 0.37, 1.1)]
    states = np.stack([random_density(rng, prod(dims)) for _ in range(4)])
    batched = channels._apply_superops(np.stack([m.superop for m, _ in maps]), states,
                                       dims, subsystem)
    assert batched.shape == (len(maps),) + states.shape
    for i, (qmap, ops) in enumerate(maps):
        big = _embedded(ops, dims, subsystem)
        for n, rho in enumerate(states):
            single = apply_map(qmap, rho, dims, subsystem)
            np.testing.assert_allclose(single, apply_kraus(big, rho), atol=1e-13)
            np.testing.assert_allclose(batched[i, n], single, rtol=0, atol=1e-15)
        phi = maximally_entangled(d)
        np.testing.assert_allclose(choi(qmap, d),
                                   d * apply_kraus(_embedded(ops, (d, d), 1), phi), atol=1e-13)


TIME_FAMILIES = {
    "quasi_eternal": quasi_eternal(0.4, 1.0),
    "depolarizing": depolarizing(0.3),
    "gadc": GadcChannel(),
    "amp_damp, callable G": AmpDampChannel(
        lambda t: float(np.exp(-t) * (1 + 0.2 * np.sin(4 * t))), p=0.25,
        dg_dt=lambda t: float(np.exp(-t) * (0.8 * np.cos(4 * t) - 1 - 0.2 * np.sin(4 * t)))),
    # Knots at 0, 1, 2 and 3, as in a JSON table.
    "amp_damp, tabulated G": AmpDampChannel(
        TabulatedRate(((0.0, 1.0), (1.0, 0.5), (2.0, 0.7), (3.0, 0.3))), p=0.3),
    "callable rates": RateChannel(CallableRate(lambda t: 0.3 + 0.1 * np.cos(t)),
                                  ConstantRate(0.1),
                                  CallableRate(lambda t: -0.2 * np.tanh(t - 1.0) + 0.05)),
    # Knots at 0, 1, 2 and 4: the grid below hits each and runs past the last.
    "tabulated dephasing": dephasing(TabulatedRate(((0.0, 1.0), (1.0, 3.0), (2.0, -1.0),
                                                    (4.0, 0.0)))),
}


@pytest.mark.parametrize("name", list(TIME_FAMILIES))
def test_maps_over_time_arrays_match_per_time_calls(name):
    # Oracle: one scalar as_affine / intermediate / divisibility call per time, stacked.
    ch = TIME_FAMILIES[name]
    grid = np.linspace(0.0, 5.0, 41)
    value, cp, p = ch.divisibility(grid)
    single = [ch.divisibility(float(t)) for t in grid]
    assert all(np.ndim(x) == 0 for x in single[0])
    np.testing.assert_allclose(value, [v for v, _, _ in single], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(cp, [c for _, c, _ in single])
    np.testing.assert_array_equal(p, [q for _, _, q in single])
    single = ch.as_affine(1.0)
    assert all(np.ndim(c) == 0 for c in single.lambdas + single.translation)
    batched = ch.as_affine(grid).superop
    assert batched.shape == (grid.size, 2, 2, 2, 2)
    dense = np.stack([ch.as_affine(float(t)).superop for t in grid])
    np.testing.assert_allclose(batched, dense, rtol=0, atol=1e-15)
    rng = np.random.default_rng(18)
    for t, s in ((grid[:-1], grid[1:]), (grid, grid + rng.uniform(0.0, 2.0, grid.size))):
        batched = ch.intermediate(t, s)
        dense = [ch.intermediate(float(a), float(b)) for a, b in zip(t, s)]
        np.testing.assert_allclose(batched.superop, np.stack([m.superop for m in dense]),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(choi(batched, 2), np.stack([choi(m, 2) for m in dense]),
                                   rtol=0, atol=1e-15)
    with pytest.raises(BadIntervalError):
        ch.intermediate(grid[1:], grid[:-1])
    with pytest.raises(BadIntervalError):
        ch.intermediate(np.array([0.0, np.nan]), np.array([1.0, 2.0]))


@pytest.mark.parametrize("name", list(TIME_FAMILIES))
def test_maps_take_zero_times(name):
    # An empty array of times gives empty maps over no times, not an error
    # from a reduction over nothing.
    ch, none = TIME_FAMILIES[name], np.array([])
    assert ch.as_affine(none).superop.shape == (0, 2, 2, 2, 2)
    assert ch.intermediate(none, none).superop.shape == (0, 2, 2, 2, 2)
    assert all(np.shape(x) == (0,) for x in ch.divisibility(none))


@pytest.mark.parametrize("name", list(TIME_FAMILIES))
def test_maps_shift_the_bloch_vector_only_along_z(name):
    # The invariant that is_p_qubit's closed form rests on: every family's maps
    # and intermediate maps have exactly zero x and y shift.
    ch = TIME_FAMILIES[name]
    grid = np.linspace(0.0, 5.0, 41)
    for qmap in (ch.as_affine(grid), ch.intermediate(grid[:-1], grid[1:])):
        assert np.all(np.asarray(qmap.translation[:2]) == 0.0)


def test_gadc_intermediate_after_lambda_t_is_lambda_s():
    # Oracle: V(t, s) after Lambda_t is Lambda_s, as 4x4 superoperator products,
    # over arrays and at scalar times.
    gadc = GadcChannel()
    rng = np.random.default_rng(21)
    t = rng.uniform(0.0, 4.0, 200)
    s = t + rng.uniform(0.0, 1.0, 200)
    np.testing.assert_allclose(after(gadc.intermediate(t, s), gadc.as_affine(t)),
                               superop_matrix(gadc.as_affine(s)), rtol=0, atol=1e-13)
    for a, b in zip(t[:20], s[:20]):
        np.testing.assert_allclose(after(gadc.intermediate(a, b), gadc.as_affine(a)),
                                   superop_matrix(gadc.as_affine(b)), rtol=0, atol=1e-13)


def test_rate_integrals_over_arrays():
    rate = TabulatedRate(((2.0, -1.0), (0.0, 1.0), (4.0, 0.0), (1.0, 3.0)))
    t1 = np.array([-3.0, -1.0, 0.0, 0.5, 1.25, 2.5, 4.0, 4.5])
    t2 = np.array([-1.0, 5.0, 1.0, 3.0, 1.75, 2.5, 6.0, 4.5])
    np.testing.assert_allclose(rate.integral(t1, t2), [2.0, 3.0, 2.0, 1.5, 0.5, 0.0, 0.0, 0.0],
                               rtol=0, atol=1e-14)
    np.testing.assert_array_equal(rate.integral(t1, t2),
                                  [rate.integral(a, b) for a, b in zip(t1, t2)])
    simpson = CallableRate(lambda t: t * t)
    got = simpson.integral(0.0, np.array([1.0, 2.0]))
    assert got.shape == (2,)
    np.testing.assert_allclose(got, [1.0 / 3.0, 8.0 / 3.0], rtol=1e-10)
    assert isinstance(simpson.integral(0.0, 1.0), float)


def test_amp_damp_intermediate_over_arrays_checks_every_step():
    ch = AmpDampChannel(lambda t: max(0.0, 1.0 - t), p=0.5, dg_dt=RAMP_SLOPE)
    v = ch.intermediate(np.array([0.2, 1.0]), np.array([0.5, 1.5]))
    np.testing.assert_allclose(v.lambdas[0], [0.625, 1.0], rtol=1e-15)
    with pytest.raises(SingularMapError):
        AmpDampChannel(lambda t: abs(1.0 - t), p=0.5, dg_dt=V_SLOPE).intermediate(
            np.array([0.2, 1.0]), np.array([0.5, 1.5]))
    np.testing.assert_array_equal(ch.as_affine(np.array([0.5, 1.0])).lambdas[2], [0.25, 0.0])
