import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nmflow
from helpers import divisibility_rates
from nmflow import channels, cli, witness
from nmflow.channels import GadcChannel, channel_from_json, quasi_eternal
from nmflow.cli import main

EXPERIMENTS = ("physicality", "divisibility-scan", "eb-time", "mi-scan", "gadc-scan",
               "probe-backflow", "hessian-check", "povm-bound", "pg-counterexample")


def read_summary(out, name):
    return json.loads((out / f"{name}.json").read_text())


def test_physicality_cli(tmp_path):
    code = main(["physicality", "--alpha", "0.4", "--out", str(tmp_path), "--check"])
    assert code == 0
    csv = (tmp_path / "physicality.csv").read_text()
    assert csv.splitlines()[0] == "t,value"
    summary = read_summary(tmp_path, "physicality")
    assert summary["landmark"]["pass"] is True
    assert summary["threshold"] == pytest.approx(0.7686, abs=1e-3)
    # 2^(1/alpha) overflows a double here; the threshold itself does not.
    assert main(["physicality", "--alpha", "0.0005", "--out", str(tmp_path)]) == 0
    assert read_summary(tmp_path, "physicality")["threshold"] == pytest.approx(693.147, abs=1e-3)


def test_povm_bound_cli(tmp_path):
    assert main(["povm-bound", "--da", "2", "--db", "6", "--out", str(tmp_path), "--check"]) == 0
    summary = read_summary(tmp_path, "povm-bound")
    assert summary["bound"] == 6.0
    assert summary["landmark"]["pass"] is True


def test_pg_counterexample_cli(tmp_path):
    assert main(["pg-counterexample", "--out", str(tmp_path), "--check"]) == 0
    summary = read_summary(tmp_path, "pg-counterexample")
    assert summary["projective"] == pytest.approx(0.65, abs=1e-14)
    assert summary["transformed"] == pytest.approx(0.725, abs=1e-14)


def test_eb_time_cli(tmp_path):
    assert main(["eb-time", "--alpha", "0.4", "--t0", "2", "--out", str(tmp_path),
                 "--check"]) == 0
    summary = read_summary(tmp_path, "eb-time")
    assert 1.46 <= summary["t_eb"] <= 1.48
    header = (tmp_path / "eb-time.csv").read_text().splitlines()[0]
    assert header == "t,value"


def test_mi_scan_cli_fixed_state(tmp_path):
    assert main(["mi-scan", "--alpha", "0.4", "--t0", "1", "--out", str(tmp_path),
                 "--check"]) == 0
    summary = read_summary(tmp_path, "mi-scan")
    assert summary["onset"] == pytest.approx(2.741, abs=5e-3)
    header = (tmp_path / "mi-scan.csv").read_text().splitlines()[0]
    assert header == "t,value,derivative"


def test_mi_scan_cli_random_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["mi-scan", "--random", "40", "--t-max", "3.0", "--step", "0.01", "--seed", "17"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "mi-scan.csv").read_bytes() == (out2 / "mi-scan.csv").read_bytes()


def test_mi_scan_random_rejects_a_channel_that_is_not_cptp(tmp_path, capsys):
    # T(0.4) = 0.7686 > t0: a mixing weight first drops below zero at t = 1.966,
    # as in phi+ mode, and the error names that time whatever the grid's end.
    for mode in ([], ["--random", "50"], ["--t-max", "20"]):
        assert main(["mi-scan", "--t0", "0.5", *mode, "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: mixing weight -2.663e-05 < 0 at t = 1.966: " \
                               "channel not CPTP\n"
    assert not (tmp_path / "mi-scan.csv").exists()


def test_divisibility_scan_cli_with_channel_json(tmp_path):
    knots = [[float(t), float(np.cos(t))] for t in np.linspace(0, 4, 41)]
    channel = json.dumps({"family": "dephasing", "gamma": knots})
    assert main(["divisibility-scan", "--channel", channel, "--t-max", "4", "--step", "0.05",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "divisibility-scan.csv").read_text().splitlines()
    assert lines[0] == "t,value,flag"
    labels = {line.split(",")[2] for line in lines[1:]}
    assert labels == {"CPDivisible", "NotP"}


def _divisibility_scan_rows(tmp_path, channel):
    """(t, value, flag) rows of divisibility-scan on its default grid."""
    assert main(["divisibility-scan", "--channel", json.dumps(channel),
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "divisibility-scan.csv").read_text().splitlines()
    grid = np.arange(0.0, 5.0 + 5e-4, 1e-3)
    assert lines[0] == "t,value,flag" and len(lines) == grid.size + 1
    return [(float(t), *line.split(",")[1:]) for t, line in zip(grid, lines[1:])]


def test_divisibility_scan_cli_gadc(tmp_path):
    gadc = GadcChannel()
    rows = _divisibility_scan_rows(tmp_path, {"family": "gadc"})
    for t, value, flag in rows:
        gm, gp = gadc.rates(t)
        assert value == f"{min(gm, gp):.12g}"
        assert flag == ("CPDivisible" if gm >= 0 and gp >= 0 else "NotP")
    assert {flag for *_, flag in rows} == {"CPDivisible", "NotP"}


def test_divisibility_scan_cli_amp_damp(tmp_path):
    spec = {"family": "amp_damp", "p": 0.3, "G": [[0, 1], [1, 0.5], [2, 0.7], [3, 0.3]]}
    channel = channel_from_json(spec)
    slopes = {0: -0.5, 1: 0.2, 2: -0.4}  # of the interpolated G, constant past t = 3
    rows = _divisibility_scan_rows(tmp_path, spec)
    for t, value, flag in rows:
        gamma = channel.gamma(t)
        assert value == f"{gamma:.12g}"
        assert flag == ("CPDivisible" if gamma >= 0 else "NotP")
        if min(abs(t - knot) for knot in (1, 2, 3)) > 1e-5:  # gamma = -2 G'/G off the knots
            g = np.interp(t, [0, 1, 2, 3], [1, 0.5, 0.7, 0.3])
            assert gamma == pytest.approx(-2.0 * slopes.get(int(t), 0.0) / g, rel=1e-8)
    assert {flag for *_, flag in rows} == {"CPDivisible", "NotP"}


def test_divisibility_scan_amp_damp_runs_through_a_flat_g_zero(tmp_path):
    # G falls to 0 at t = 2 and stays there: Lambda_t is the constant map from
    # then on, so Gamma is +0.0 and those rows are CP-divisible. G = 0 where G
    # still moves (t = 1 below, rising after) has no Gamma and stays an error.
    rows = _divisibility_scan_rows(tmp_path, {"family": "amp_damp", "p": 0.3,
                                              "G": [[0, 1], [2, 0]]})
    late = {(value, flag) for t, value, flag in rows if t >= 2.0}
    assert late == {("0", "CPDivisible")}
    assert sum(t >= 2.0 for t, _, _ in rows) == 3001
    assert {flag for *_, flag in rows} == {"CPDivisible"}
    revival = {"family": "amp_damp", "p": 0.3, "G": [[0, 1], [1, 0], [2, 0.5], [3, 0]]}
    assert main(["divisibility-scan", "--channel", json.dumps(revival),
                 "--out", str(tmp_path / "revival")]) == 1


def test_divisibility_scan_amp_damp_table_evaluates_the_grid_at_once(monkeypatch, tmp_path):
    # A tabulated G and its slope take the whole grid in one call each, never
    # one scalar evaluation per time.
    calls = []
    elementwise = channels._elementwise
    monkeypatch.setattr(channels, "_elementwise",
                        lambda *args: calls.append(args) or elementwise(*args))
    _divisibility_scan_rows(tmp_path, {"family": "amp_damp", "p": 0.3, "G": [[0, 1], [3, 0.3]]})
    assert calls == []


def divisibility_rows_loop(channel, grid) -> list[str]:
    """Per-point oracle for divisibility-scan's CSV rows: the rates at one time
    per call, through the family ladder."""
    lines = []
    for t in grid:
        t = float(t)
        if hasattr(channel, "gamma"):  # amp_damp, whose rates are p gamma and (1 - p) gamma
            g = channel.gamma(t)
            rates, value = (g, g, g), g
        elif isinstance(channel, GadcChannel):
            gm, gp = channel.rates(t)
            rates, value = (gm, gp, 0.0), min(gm, gp)
        else:
            rates = channel.rates(t)
            value = min(rates)
        flags = divisibility_rates(*rates)
        label = "CPDivisible" if flags["cp"] else ("PNotCP" if flags["p"] else "NotP")
        lines.append(f"{t:.12g},{value:.12g},{label}")
    return lines


@pytest.mark.parametrize("spec", [
    None,
    {"family": "gadc"},
    {"family": "dephasing", "gamma": [[0, 1], [5, -0.3]]},
    {"family": "amp_damp", "p": 0.3, "G": [[0, 1], [1, 0.5], [2, 0.7], [3, 0.3]]},
])
def test_divisibility_scan_matches_per_point_ladder(tmp_path, spec):
    argv = ["divisibility-scan", "--out", str(tmp_path)]
    if spec is not None:
        argv += ["--channel", json.dumps(spec)]
    assert main(argv) == 0
    lines = (tmp_path / "divisibility-scan.csv").read_text().splitlines()
    channel = quasi_eternal(0.4, 1.0) if spec is None else channel_from_json(spec)
    assert lines[1:] == divisibility_rows_loop(channel, np.arange(0.0, 5.0 + 5e-4, 1e-3))


def test_divisibility_scan_amp_damp_exact_at_knots(tmp_path):
    # G knots (0, 1), (1, 0.5), (2, 0.7), (3, 0.3): at a knot the rate is the
    # right-hand one, -2 G'/G, and G is flat from the last knot on.
    spec = {"family": "amp_damp", "p": 0.3, "G": [[0, 1], [1, 0.5], [2, 0.7], [3, 0.3]]}
    rows = dict((t, (value, flag)) for t, value, flag in _divisibility_scan_rows(tmp_path, spec))
    assert rows[1.0] == ("-0.8", "NotP")
    assert rows[2.0] == (f"{0.8 / 0.7:.12g}", "CPDivisible")
    assert rows[3.0] == ("0", "CPDivisible")
    assert not [t for t, (value, _) in rows.items() if value == "-0"]
    channel = channel_from_json(spec)
    assert channel.gamma(0.5) == -2.0 * -0.5 / 0.75
    assert channel.gamma(-1.0) == 0.0 and channel.gamma(4.0) == 0.0


def _count_kernel_calls(monkeypatch, argv, tmp_path) -> dict:
    counts = dict.fromkeys(("eigh", "eigvalsh", "integral"), 0)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as m:
        for name in ("eigh", "eigvalsh"):
            m.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        for cls in (channels.ConstantRate, channels.QuasiEternalZRate, channels.TabulatedRate,
                    channels.CallableRate, channels.ScaledRate):
            m.setattr(cls, "integral", counted("integral", cls.integral))
        assert main(argv + ["--out", str(tmp_path)]) == 0
    return counts


@pytest.mark.parametrize("small, large", [
    (["hessian-check", "--draws", "5"], ["hessian-check", "--draws", "50"]),
    (["probe-backflow", "--step", "1e-2"], ["probe-backflow", "--step", "2.5e-3"]),
])
def test_kernel_calls_do_not_grow_with_the_grid(monkeypatch, tmp_path, small, large):
    # One stacked call per grid: eigendecompositions and rate integrals are
    # independent of the number of draws or grid points.
    assert (_count_kernel_calls(monkeypatch, small, tmp_path)
            == _count_kernel_calls(monkeypatch, large, tmp_path))


def test_phi_plus_series_need_no_density_matrices(monkeypatch, tmp_path):
    # Both series come from probs(t) in closed form: mi-scan diagonalizes
    # nothing, and eb-time only inside find_t_eb.
    assert _count_kernel_calls(monkeypatch, ["mi-scan"], tmp_path)["eigvalsh"] == 0
    calls = []
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigvalsh", lambda a, f=np.linalg.eigvalsh: calls.append(1) or f(a))
        witness.find_t_eb(quasi_eternal(0.4, 2.0), tol=1e-3, t_max=20.0)
    assert _count_kernel_calls(monkeypatch, ["eb-time"], tmp_path)["eigvalsh"] == len(calls)


def test_mi_scans_diagonalize_with_the_jacobi_kernel(monkeypatch, tmp_path):
    # mi_series takes its joint spectra from qmat.jacobi_eigvalsh4, never from
    # LAPACK, and the default gadc-scan stack (its eps values at every grid
    # time) fits one kernel call, so its fixed per-call cost is paid once.
    # The kernel gets the stack as its (10, M) entry rows.
    shapes = []
    kernel = witness.jacobi_eigvalsh4
    monkeypatch.setattr(witness, "jacobi_eigvalsh4",
                        lambda m: shapes.append(m.shape) or kernel(m))
    counts = _count_kernel_calls(monkeypatch, ["gadc-scan"], tmp_path)
    assert counts["eigvalsh"] == 0 and len(shapes) == 1
    assert shapes[0][0] == 10 and shapes[0][1] <= witness.CHUNK_MATRICES
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigvalsh", lambda *a: pytest.fail("eigvalsh called"))
        vectors = witness.sample_pure_vectors((2, 2), 50, seed=3)
        for channel in (quasi_eternal(0.4, 1.0), channels.RateChannel(
                channels.ConstantRate(0.1), channels.ConstantRate(0.4), channels.ConstantRate(0.3))):
            witness.mi_series(channel, vectors, np.linspace(0.0, 2.0, 401), workers=1)
    assert len(shapes) == 1 + 2 * 2  # 401 times of 50 states: two chunks per channel


def test_experiments_independent_of_thread_count(monkeypatch, tmp_path):
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("NMFLOW_THREADS", threads)
        out = tmp_path / threads
        for name in EXPERIMENTS:
            assert main([name, "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == 2 * len(EXPERIMENTS)
    assert outputs[0] == outputs[1]


def _per_value_csv(header, columns):
    fmt = lambda x: f"{x:.12g}" if isinstance(x, float) else str(x)
    return "\n".join([",".join(header)] + [",".join(map(fmt, row))
                                             for row in zip(*columns)]) + "\n"


def test_write_csv_matches_per_value_formatting(tmp_path):
    columns = [[0.0, 1e-300, 123456789012.345678],
               [np.float64(1.0) / 3.0, float("nan"), np.float64(-2.5e-17)],
               [7, -3, 0],
               ["CPDivisible", "NotP", "PNotCP"],
               [-0.0, float("inf"), 1.0]]
    cli.write_csv(tmp_path / "x.csv", ["a", "b", "c", "d", "e"], columns)
    assert (tmp_path / "x.csv").read_text() == _per_value_csv(list("abcde"), columns)
    cli.write_csv(tmp_path / "empty.csv", ["t", "value"], [[], []])
    assert (tmp_path / "empty.csv").read_text() == "t,value\n"


def test_write_csv_formats_a_large_mixed_table_per_value(tmp_path):
    # One `%` over the whole table gives the bytes of per-value formatting,
    # also for the special floats and for strings holding `%`.
    rng = np.random.default_rng(7)
    n = 5001
    special = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e-300, -1e-300,
               5e-324, 1.7976931348623157e308]
    floats = (rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n)).tolist()
    floats[::500] = special + special[:2]
    texts = [["%s", "%.12g", "100%", "%%", "a,b", "%(x)s"][i % 6] for i in range(n)]
    columns = [np.linspace(0.0, 5.0, n).tolist(), floats,
               rng.integers(-10**12, 10**12, n).tolist(), texts, [-0.0] * n]
    header = ["t", "value", "count", "flag", "zero"]
    cli.write_csv(tmp_path / "big.csv", header, columns)
    assert (tmp_path / "big.csv").read_text() == _per_value_csv(header, columns)


@pytest.mark.parametrize("columns", [[[1.0, 2.0], [3.0]], [[1.0], [2.0, 3.0]], [[], [1.0]],
                                     [[1.0, 2.0], [3.0, 4.0], [5.0]]])
def test_write_csv_rejects_columns_of_unequal_length(tmp_path, columns):
    with pytest.raises(ValueError):
        cli.write_csv(tmp_path / "x.csv", ["a"] * len(columns), columns)
    assert not (tmp_path / "x.csv").exists()


def test_repeated_runs_in_one_process_give_the_same_bytes(tmp_path):
    # The runners keep no state between runs: all nine experiments run twice
    # at their defaults, with a non-default eb-time in between, give the same
    # bytes.
    def run_all(out):
        for name in EXPERIMENTS:
            assert main([name, "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run_all(tmp_path / "first")
    assert main(["eb-time", "--step", "0.02", "--out", str(tmp_path / "step")]) == 0
    assert run_all(tmp_path / "second") == first
    assert len(first) == 2 * len(EXPERIMENTS)
    eb_rows = (tmp_path / "step" / "eb-time.csv").read_text().splitlines()[1:4]
    assert [float(r.split(",")[0]) for r in eb_rows] == [0.0, 0.02, 0.04]


@pytest.mark.parametrize("step", ["-1", "0", "nan", "inf"])
def test_eb_time_rejects_a_bad_step_before_the_search(monkeypatch, tmp_path, capsys, step):
    # Checked up front: no t_EB search runs and nothing is printed to stdout.
    def never(*args, **kwargs):
        raise AssertionError("find_t_eb called")

    monkeypatch.setattr(witness, "find_t_eb", never)
    assert main(["eb-time", "--step", step, "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --step")
    assert not (tmp_path / "eb-time.csv").exists()


def test_eb_time_keeps_the_step_floor_for_small_steps(tmp_path):
    assert main(["eb-time", "--step", "1e-5", "--out", str(tmp_path)]) == 0
    times = [float(r.split(",")[0])
             for r in (tmp_path / "eb-time.csv").read_text().splitlines()[1:4]]
    assert times == [0.0, 1e-3, 2e-3]


@pytest.mark.parametrize("t_max", ["nan", "inf", "-inf"])
def test_probe_backflow_rejects_a_non_finite_t_max_before_any_work(monkeypatch, tmp_path,
                                                                    capsys, t_max):
    def never(*args, **kwargs):
        raise AssertionError("probe built")

    monkeypatch.setattr(cli.mepovm, "build_probe", never)
    assert main(["probe-backflow", f"--t-max={t_max}", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: --t-max")


@pytest.mark.parametrize("argv", [["--p1", "nan"], ["--p2", "nan"], ["--p3", "inf"]])
def test_pg_counterexample_rejects_non_finite_probabilities(tmp_path, capsys, argv):
    assert main(["pg-counterexample", *argv, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: probabilities")
    assert not (tmp_path / "pg-counterexample.csv").exists()


@pytest.mark.parametrize("argv", [["--p1", "0", "--p2", "0.15", "--p3", "0.85"],
                                  ["--p1", "0.1", "--p2", "0.5", "--p3", "0.4"]])
def test_pg_counterexample_rejects_p1_zero_and_p2_above_p1(tmp_path, capsys, argv):
    # p1 = 0 divides by zero; p2 > p1 mixes rho1 and rho2 into diag(3, -2), no state.
    assert main(["pg-counterexample", *argv, "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: need 0 < p1")
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "pg-counterexample.csv").exists()


@pytest.mark.parametrize("argv", [
    ["probe-backflow", "--step", "1e-9"],
    ["divisibility-scan", "--t-max", "1e9"],
    ["mi-scan", "--step", "1e-300"],
    ["gadc-scan", "--step", "1e-9"],
    ["eb-time", "--t-max", "1e300"],
    ["eb-time", "--alpha", "1e-9", "--t-max", "1e300"],  # the coarse scan of find_t_eb
])
def test_cli_bounds_grid_points_before_allocating(monkeypatch, tmp_path, capsys, argv):
    def never(*args, **kwargs):
        raise AssertionError("grid allocated")

    monkeypatch.setattr(np, "arange", never)
    if argv[0] == "eb-time" and argv[1] == "--alpha":
        monkeypatch.setattr(np, "full", never)  # find_t_eb's coarse points
        monkeypatch.setattr(witness, "phi_plus_negativity", never)
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"exceeds {cli.MAX_GRID_POINTS}" in err


class Reached(Exception):
    """Raised by a stub where the CLI has passed its checks and starts the work."""


def _reached(*args, **kwargs):
    raise Reached


@pytest.mark.parametrize("argv", [
    ["hessian-check", "--draws", "1" + "0" * 30],
    ["hessian-check", "--draws", str(cli.MAX_DRAWS + 1)],
    ["mi-scan", "--random", "1" + "0" * 30],
    ["mi-scan", "--random", "20000"],  # on the default 4001-point grid
])
def test_cli_bounds_counts_before_allocating(monkeypatch, tmp_path, capsys, argv):
    monkeypatch.setattr(np.random, "default_rng", _reached)
    monkeypatch.setattr(witness, "min_t_nm_scan", _reached)
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["hessian-check", "--draws", str(cli.MAX_DRAWS)],
    ["mi-scan", "--random", "20000", "--t-max", "3", "--step", "2e-3"],  # criterion 06
])
def test_cli_count_bounds_keep_the_full_scale_runs(monkeypatch, tmp_path, argv):
    monkeypatch.setattr(witness, "mi_rate_hessian", _reached)
    monkeypatch.setattr(witness, "min_t_nm_scan", _reached)
    with pytest.raises(Reached):
        main(argv + ["--out", str(tmp_path)])


def _reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


@pytest.mark.parametrize("argv, key", [(["physicality", "--alpha", "5e-324"], "threshold"),
                                       (["mi-scan", "--alpha", "1e300"], "onset")])
def test_non_finite_summary_values_are_null(tmp_path, argv, key):
    # T(5e-324) overflows to inf, and the phi+ series of alpha = 1e300 has no
    # onset (nan). Strict JSON has neither: both are written as null, and the
    # overflow raises no RuntimeWarning.
    src = str(Path(nmflow.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "nmflow.cli", *argv, "--out", str(tmp_path)],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert "RuntimeWarning" not in out.stderr
    text = (tmp_path / f"{argv[0]}.json").read_text()
    assert json.loads(text, parse_constant=_reject_constant)[key] is None


def test_write_summary_writes_non_finite_floats_as_null(tmp_path):
    path = tmp_path / "summary.json"
    cli.write_summary(path, {"a": float("inf"), "b": [np.float64("nan"), (1.5, -np.inf)],
                             "c": {"d": np.float64(0.25), "e": None, "f": True}})
    assert json.loads(path.read_text(), parse_constant=_reject_constant) == {
        "a": None, "b": [None, [1.5, None]], "c": {"d": 0.25, "e": None, "f": True}}
    # A non-finite value that reaches json only through default=float is refused.
    with pytest.raises(ValueError):
        cli.write_summary(path, {"a": np.float32("inf")})


def test_grid_bound_is_on_the_point_count():
    n = cli.MAX_GRID_POINTS
    assert cli._grid(0.0, 1.0, 1.0 / n).size <= n
    with pytest.raises(cli.ConfigParseError):
        cli._grid(0.0, 1.0, 0.5 / n)


@pytest.mark.parametrize("argv", [["hessian-check", "--seed", "-1"],
                                  ["mi-scan", "--random", "2", "--seed", "-3"],
                                  ["povm-bound", "--da", "1" + "0" * 400]])
def test_cli_rejects_out_of_range_integers(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


# Values for the property test below: NaN, +-inf, zero, negatives, huge and
# tiny numbers, non-numbers and a few valid ones. Counts that size the work
# take only invalid or small valid values, so that no run allocates much.
FUZZ_FLOATS = ("nan", "inf", "-inf", "0", "-0.0", "-1", "-1e300", "1e300", "1e-300",
               "5e-324", "0.5", "2", "abc", "", "1,5")
FUZZ_INTS = ("-1", "0", "1", "2", "6", "1" + "0" * 400, "-" + "9" * 30, "1.5", "abc", "")
FUZZ_COUNTS = ("-1", "0", "1", "2", "1" + "0" * 30, "1.5", "abc", "")
FUZZ_STRINGS = {"--eps": st.lists(st.sampled_from(FUZZ_FLOATS + ("1e-3",)), min_size=1,
                                  max_size=3).map(",".join),
                "--channel": st.sampled_from(("", "{}", "[1]", "not json",
                                              '{"family":"quasi_eternal","alpha":NaN,"t0":1}',
                                              '{"family":"dephasing","gamma":1e300}'))}

# pg-counterexample probabilities that sum to 1, so that they pass the Ensemble check.
FUZZ_PROBS = st.tuples(*[st.sampled_from(("-0.5", "0", "0.1", "0.4", "0.5", "1"))] * 2).map(
    lambda p: [f"--p1={p[0]}", f"--p2={p[1]}", f"--p3={1.0 - float(p[0]) - float(p[1])!r}"])


def _fuzz_values(flag, kind):
    if flag in ("--random", "--draws"):
        return st.sampled_from(FUZZ_COUNTS)
    if flag in FUZZ_STRINGS:
        return FUZZ_STRINGS[flag]
    return st.sampled_from(FUZZ_INTS if kind is int else FUZZ_FLOATS)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_exits_cleanly_on_any_numbers(tmp_path_factory, data):
    # Every run exits 0, or exits 1 with one "error:" line: no traceback.
    name = data.draw(st.sampled_from(EXPERIMENTS))
    argv = [name, "--out", str(tmp_path_factory.getbasetemp() / "fuzz")]
    for flag, kind, *_ in cli.OPTIONS[name] + [("--seed", int)]:
        value = data.draw(st.none() | _fuzz_values(flag, kind))
        if value is not None:
            argv.append(f"{flag}={value}")
    if name == "pg-counterexample" and data.draw(st.booleans()):
        argv += data.draw(FUZZ_PROBS)  # the last of a repeated flag wins
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code == 0 or (code == 1 and len(lines) == 1 and lines[0].startswith("error: ")), \
        (argv, err.getvalue())


def test_probe_backflow_cli(tmp_path):
    assert main(["probe-backflow", "--alpha", "0.4", "--t0", "2", "--tau", "3", "--p", "0.2",
                 "--out", str(tmp_path), "--check"]) == 0
    summary = read_summary(tmp_path, "probe-backflow")
    assert summary["optimizer_at_tau"] == pytest.approx(0.1, abs=1e-7)
    assert summary["monotone_before_t0"] and summary["increasing_after_tau"]
    header = (tmp_path / "probe-backflow.csv").read_text().splitlines()[0]
    assert header == "t,value,derivative,flag"


def test_gadc_scan_cli(tmp_path):
    assert main(["gadc-scan", "--eps", "1e-3", "--out", str(tmp_path)]) == 0
    summary = read_summary(tmp_path, "gadc-scan")
    assert summary["results"][0]["interval"] is not None
    header = (tmp_path / "gadc-scan.csv").read_text().splitlines()[0]
    assert header == "t_start,t_end,mi_max,eps"


def test_hessian_check_cli(tmp_path):
    assert main(["hessian-check", "--draws", "5", "--out", str(tmp_path), "--check"]) == 0
    summary = read_summary(tmp_path, "hessian-check")
    assert summary["max_deviation"] <= 1e-3


def test_hessian_check_deviation_stays_at_rounding_level(tmp_path):
    # Divided differences across the 2 a12 gap of the joint spectrum keep
    # their digits over every draw, small |a12| included.
    assert main(["hessian-check", "--draws", "5000", "--seed", "7", "--out", str(tmp_path)]) == 0
    assert read_summary(tmp_path, "hessian-check")["max_deviation"] <= 1e-14


def test_cli_error_exit_codes(tmp_path):
    # Unparseable arguments and domain errors exit 1.
    assert main(["probe-backflow", "--p", "0.5", "--out", str(tmp_path)]) == 1
    assert main(["no-such-experiment"]) == 1
    bad_config = tmp_path / "bad.json"
    bad_config.write_text("{not json")
    assert main(["physicality", "--config", str(bad_config)]) == 1
    mismatched = tmp_path / "mismatch.json"
    mismatched.write_text(json.dumps({"experiment": "eb-time"}))
    assert main(["physicality", "--config", str(mismatched)]) == 1


@pytest.mark.parametrize("argv", [
    ["physicality", "--alpha", "-1"],
    ["physicality", "--alpha", "nan"],
    ["mi-scan", "--t-max", "nan"],
    ["mi-scan", "--t-max", "1e-9"],
    ["gadc-scan", "--step", "nan"],
    ["eb-time", "--step", "nan"],
    ["probe-backflow", "--step", "nan"],
    ["probe-backflow", "--step", "0"],
    ["gadc-scan", "--eps", "1e-3,abc"],
    ["gadc-scan", "--eps", "nan"],
    ["gadc-scan", "--eps", "0"],
    ["gadc-scan", "--eps", "2"],
    ["eb-time", "--tol", "0"],
    ["eb-time", "--tol", "-1e-3"],
    ["eb-time", "--tol", "nan"],
    ["eb-time", "--tol", "inf"],
    ["eb-time", "--alpha", "0.2", "--t0", "0.5", "--t-max", "inf"],
    ["eb-time", "--alpha", "nan"],
    ["mi-scan", "--alpha", "nan"],
    ["mi-scan", "--alpha", "inf"],
    ["mi-scan", "--t0", "nan"],
    ["mi-scan", "--t0", "inf"],
    ["divisibility-scan", "--alpha", "nan"],
    ["mi-scan", "--random", "-5"],
    ["mi-scan", "--t0", "0.5"],  # below the physicality threshold: negative weights
    ["hessian-check", "--draws", "0"],
    ["hessian-check", "--draws", "-1", "--check"],
    ["divisibility-scan", "--channel", '{"family":"dephasing","gamma":[[0,1],[5,NaN]]}'],
    ["divisibility-scan", "--channel", '{"family":"dephasing","gamma":[[0,1],[Infinity,1]]}'],
    ["divisibility-scan", "--channel", '{"family":"amp_damp","p":1.5,"G":[[0,1],[2,0.5]]}'],
    ["divisibility-scan", "--channel", '{"family":"amp_damp","p":NaN,"G":[[0,1],[2,0.5]]}'],
    ["divisibility-scan", "--channel", '{"family":"amp_damp","p":0.3,"G":[[0,1],[2,1.5]]}'],
    ["divisibility-scan", "--channel", '{"family":"amp_damp","p":0.3,"G":[[0,1],[2,-0.1]]}'],
    ["divisibility-scan", "--channel", '{"family":"amp_damp","p":0.3,"G":[[0,1],[2,NaN]]}'],
    ["divisibility-scan", "--channel", '{"family":"amp_damp","p":0.3,"G":[[0,1],[Infinity,1]]}'],
    ["divisibility-scan", "--channel", '{"family":"amp_damp","p":0.3,"G":[]}'],
])
def test_cli_rejects_bad_numbers(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("config", [
    {"seed": "abc"},
    {"seed": 1.7},
    {"seed": True},
    [1, 2],
    {"grid": {"t_max": "x"}},
    {"grid": {"step": None}},
    {"grid": 5},
    {"output": 5},
    {"seed": -1},
    {"grid": {"t_max": 10 ** 400}},  # an integer too large for a float
], ids=json.dumps)
def test_cli_rejects_malformed_config(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["divisibility-scan", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_cli_rejects_malformed_thread_count(tmp_path, capsys, monkeypatch):
    # Checked up front, also by experiments that start no worker threads.
    monkeypatch.setenv("NMFLOW_THREADS", "abc")
    assert main(["physicality", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: NMFLOW_THREADS")


def test_cli_imports_no_scipy():
    # nmflow needs numpy only; scipy.optimize alone used to dominate the
    # start-up time and memory of every CLI run.
    code = ("import sys, nmflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(nmflow.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.strip() == "[]"


def test_cli_imports_no_thread_pool():
    # Single-threaded runs never start a pool, so they do not pay for importing one.
    code = "import sys, nmflow.cli; print('concurrent.futures' in sys.modules)"
    src = str(Path(nmflow.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.strip() == "False"


# One option per experiment, set away from its default.
OVERRIDES = {"physicality": ["--alpha", "0.5"], "divisibility-scan": ["--t-max", "3"],
             "eb-time": ["--tol", "1e-4"], "mi-scan": ["--random", "7"],
             "gadc-scan": ["--eps", "1e-3"], "probe-backflow": ["--p", "0.3"],
             "hessian-check": ["--draws", "3"], "povm-bound": ["--db", "6"],
             "pg-counterexample": ["--p3", "0.5"]}


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_parser_of_one_experiment_parses_alike(name):
    for argv in ([name], [name, *OVERRIDES[name]], [name, "--seed", "3", "--check"]):
        full = cli.build_parser().parse_args(argv)
        assert cli.build_parser(only=name).parse_args(argv) == full
    assert full.seed == 3 and full.check
    assert cli.build_parser(only=name).parse_args([name, *OVERRIDES[name]]) \
        != cli.build_parser().parse_args([name])


def test_parser_of_one_experiment_keeps_every_choice_otherwise():
    # Anything but an experiment name gets all nine subparsers, so --help and
    # a wrong or missing name read as before.
    for only in (None, "no-such-experiment", "--help"):
        choices = cli.build_parser(only)._subparsers._group_actions[0].choices
        assert list(choices) == list(EXPERIMENTS)
    assert list(cli.build_parser("eb-time")._subparsers._group_actions[0].choices) == ["eb-time"]


def test_cli_check_failure_exits_2(tmp_path):
    # The random-state landmark applies from 2000 samples on, but a scan
    # window ending before the earliest backflow finds no onset: check fails.
    assert main(["mi-scan", "--random", "2000", "--t-max", "2.0", "--step", "0.01",
                 "--out", str(tmp_path), "--check"]) == 2


def test_cli_config_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "divisibility-scan",
        "channel": {"family": "quasi_eternal", "alpha": 0.4, "t0": 1.0},
        "grid": {"t_max": 3.0, "step": 0.05},
        "seed": 3,
        "output": str(tmp_path / "run"),
    }))
    assert main(["divisibility-scan", "--config", str(config)]) == 0
    lines = ((tmp_path / "run") / "divisibility-scan.csv").read_text().splitlines()
    assert lines[0] == "t,value,flag"
    # Rates turn negative past t0 = 1 while pair sums stay nonnegative.
    flags = [line.split(",")[2] for line in lines[1:]]
    assert "PNotCP" in flags and "CPDivisible" in flags


def test_cli_flags_win_over_config_file(tmp_path):
    # --t-max and --out come from the command line, step and seed from the
    # file, whether --config comes after the explicit flags or before them.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": {"t_max": 3.0, "step": 0.01}, "seed": 3,
                                  "output": str(tmp_path / "file")}))
    flags = ["--t-max", "1", "--out", str(tmp_path / "flag")]
    for argv in ([*flags, "--config", str(config)], ["--config", str(config), *flags]):
        assert main(["divisibility-scan", *argv]) == 0
        times = [float(line.split(",")[0]) for line in
                 (tmp_path / "flag" / "divisibility-scan.csv").read_text().splitlines()[1:]]
        assert len(times) == 101 and times[-1] == 1.0
        assert not (tmp_path / "file").exists()
    for argv, seed in ((["--seed", "5"], 5), ([], 3)):
        assert main(["mi-scan", "--random", "2", "--t-max", "1.5", *argv,
                     "--out", str(tmp_path / "seed"), "--config", str(config)]) == 0
        assert json.loads((tmp_path / "seed" / "mi-scan.json").read_text())["seed"] == seed


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_parser_holds_every_default(name):
    # Left off the command line, each option parses as its default, not None.
    args = cli.build_parser(only=name).parse_args([name])
    defaults = {flag[2:].replace("-", "_"): default for flag, _, default, *_ in cli.OPTIONS[name]}
    assert vars(args) == {"experiment": name, **defaults, "out": ".", "seed": 24,
                          "config": None, "check": False}


def test_config_output_may_start_with_a_dash(tmp_path, monkeypatch):
    # A relative path such as -dash is a value, not an option.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps({"output": "-dash"}))
    assert main(["physicality", "--config", "config.json"]) == 0
    assert (tmp_path / "-dash" / "physicality.csv").exists()


@pytest.mark.parametrize("name,config,flags", [
    ("divisibility-scan", {"grid": {"step": 0.1}}, ["--step", "0.1"]),
    # gadc-scan has neither --channel nor --t-max, so the file's are not read.
    ("gadc-scan", {"channel": "not a channel", "grid": {"t_max": "x", "step": 0.01}},
     ["--step", "0.01"]),
])
def test_config_values_act_as_their_flags(tmp_path, name, config, flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([name, "--config", str(path), "--out", str(tmp_path / "file")]) == 0
    assert main([name, *flags, "--out", str(tmp_path / "flag")]) == 0
    for suffix in (".csv", ".json"):
        assert (tmp_path / "file" / (name + suffix)).read_bytes() \
            == (tmp_path / "flag" / (name + suffix)).read_bytes()
