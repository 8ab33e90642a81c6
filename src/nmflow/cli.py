"""Scenario runner: each subcommand reproduces one of the numeric landmarks
and writes a CSV (12 significant digits) plus a JSON summary with the
landmark value and, where one is registered, a pass/fail verdict.

Exit codes: 0 ok, 1 error, 2 landmark check failed under --check. The
NMFLOW_THREADS environment variable caps parallel workers.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import correlations, divisibility, mepovm, witness
from .channels import DEFAULT_SCAN_STEP, channel_from_json, quasi_eternal
from .errors import ConfigParseError, NmflowError
from .numutil import thread_count

T1_MINUS = (0.13437, 0.31416)
MAX_GRID_POINTS = 100_000  # 20x the largest default grid, divisibility-scan's 5001 points
MAX_SCAN_VALUES = 20_000 * 1501  # --random states x grid points: criterion 06 at full scale
MAX_DRAWS = 20_000  # hessian-check draws, ~18 KB of peak memory each


def write_csv(path: Path, header: list[str], columns: list[list]) -> None:
    """The columns side by side under the header, one line per row. A column
    whose first value is a float prints every value at 12 significant digits,
    any other column with str. Columns of unequal length raise ValueError
    before anything is written."""
    row = ",".join("%.12g" if column and isinstance(column[0], float) else "%s"
                   for column in columns) + "\n"
    body = "".join([row % values for values in zip(*columns, strict=True)])
    path.write_text(",".join(header) + "\n" + body, encoding="utf-8")


def _strict(value):
    # The summary with every non-finite float as None, which JSON writes as null.
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_summary(path: Path, summary: dict) -> None:
    """The summary as strict JSON: a non-finite float is written as null."""
    text = json.dumps(_strict(summary), indent=2, sort_keys=True, default=float, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigParseError(message)


def _grid(start: float, stop: float, step: float) -> np.ndarray:
    """np.arange(start, stop, step), rejecting numbers that give fewer than two
    points or more than MAX_GRID_POINTS before anything is allocated."""
    if not (0 < step < np.inf and start + step < stop < np.inf):  # also rejects NaN
        raise ConfigParseError(f"need a finite step > 0 and at least two grid points, "
                               f"got start={start}, stop={stop}, step={step}")
    count = (stop - start) / step
    if count > MAX_GRID_POINTS:
        raise ConfigParseError(f"a grid of {count:.4g} points exceeds {MAX_GRID_POINTS}")
    return np.arange(start, stop, step)


def _eps_list(text: str) -> list[float]:
    try:
        values = [float(e) for e in text.split(",")]
    except ValueError as exc:
        raise ConfigParseError(f"--eps must be comma-separated numbers: {exc}") from exc
    bad = [e for e in values if not 0 < e <= 1]  # also rejects NaN
    if bad:
        raise ConfigParseError(f"--eps entries must lie in (0, 1], got {bad}")
    return values


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def run_physicality(cfg, out):
    value = divisibility.physicality_threshold(cfg.alpha)
    print(f"T(alpha={cfg.alpha}) = {value:.6f}")
    landmark = None
    if abs(cfg.alpha - 0.4) < 1e-12:
        landmark = {"name": "physicality_threshold", "value": value,
                    "target": 0.7686, "tol": 1e-3, "pass": abs(value - 0.7686) <= 1e-3}
    write_csv(out / "physicality.csv", ["t", "value"], [[cfg.alpha], [value]])
    return {"experiment": "physicality", "alpha": cfg.alpha, "threshold": value,
            "landmark": landmark}


def run_divisibility_scan(cfg, out):
    channel = channel_from_json(cfg.channel) if cfg.channel else quasi_eternal(cfg.alpha, cfg.t0)
    grid = _grid(0.0, cfg.t_max + cfg.step / 2, cfg.step)
    value, cp, p = channel.divisibility(grid)
    label = divisibility.DivisibilityLabel
    cp_div, p_not_cp, not_p = label.CP_DIVISIBLE.value, label.P_NOT_CP.value, label.NOT_P.value
    labels = np.where(cp, cp_div, np.where(p, p_not_cp, not_p))
    write_csv(out / "divisibility-scan.csv", ["t", "value", "flag"],
              [grid.tolist(), value.tolist(), labels.tolist()])
    n_cp, n_p = int(np.count_nonzero(cp)), int(np.count_nonzero(p & ~cp))
    counts = {cp_div: n_cp, not_p: grid.size - n_cp - n_p, p_not_cp: n_p}
    return {"experiment": "divisibility-scan",
            "fractions": {lab: n / grid.size for lab, n in counts.items() if n},
            "landmark": None}


def run_eb_time(cfg, out):
    if not 0 < cfg.step < np.inf:  # also rejects NaN
        raise ConfigParseError(f"--step must be finite and > 0, got {cfg.step}")
    channel = quasi_eternal(cfg.alpha, cfg.t0)
    t_eb = witness.find_t_eb(channel, tol=cfg.tol, t_max=cfg.t_max)
    print(f"t_EB(alpha={cfg.alpha}, t0={cfg.t0}) = {t_eb:.4f}")
    grid = _grid(0.0, t_eb + 0.5, max(cfg.step, 1e-3))
    write_csv(out / "eb-time.csv", ["t", "value"],
              [grid.tolist(), witness.phi_plus_negativity(channel, grid).tolist()])
    landmark = None
    if abs(cfg.alpha - 0.4) < 1e-12 and abs(cfg.t0 - 2.0) < 1e-12:
        landmark = {"name": "t_EB", "value": t_eb, "target": [1.46, 1.48],
                    "pass": 1.46 <= t_eb <= 1.48}
    return {"experiment": "eb-time", "t_eb": t_eb, "landmark": landmark}


def run_mi_scan(cfg, out):
    channel = quasi_eternal(cfg.alpha, cfg.t0)
    grid = _grid(0.0, cfg.t_max + cfg.step / 2, cfg.step)
    landmark = None
    if cfg.random < 0:
        raise ConfigParseError(f"--random must be >= 0, got {cfg.random}")
    if cfg.random * grid.size > MAX_SCAN_VALUES:
        raise ConfigParseError(f"--random {cfg.random} states on {grid.size} grid points "
                               f"exceed {MAX_SCAN_VALUES} values")
    if cfg.random:
        onset, state, onsets = witness.min_t_nm_scan(channel, cfg.random, grid, seed=cfg.seed)
        detected = int(np.sum(~np.isnan(onsets)))
        print(f"min MI onset over {cfg.random} random states: {onset:.4f} "
              f"({detected} detected)")
        columns = [[], []]
        if state is not None:
            series = witness.mi_series(channel, state[None, :], grid, workers=1)[:, 0]
            columns = [grid.tolist(), series.tolist()]
        write_csv(out / "mi-scan.csv", ["t", "value"], columns)
        if abs(cfg.alpha - 0.4) < 1e-12 and abs(cfg.t0 - 1.0) < 1e-12 and cfg.random >= 2000:
            bound = 2.43 if cfg.random >= 20000 else 2.55
            landmark = {"name": "min_t_nm", "value": onset, "target": f"<= {bound}",
                        "pass": bool(onset <= bound)}
        return {"experiment": "mi-scan", "mode": f"random:{cfg.random}",
                "min_onset": onset, "detected": detected, "seed": cfg.seed,
                "landmark": landmark}
    series = witness.phi_plus_mi(channel, grid)
    report = witness.series_backflow(grid, series, lambda t: witness.phi_plus_mi(channel, t))
    write_csv(out / "mi-scan.csv", ["t", "value", "derivative"],
              [grid.tolist(), series.tolist(), np.gradient(series, grid).tolist()])
    onset = report.onsets[0] if report.onsets else float("nan")
    print(f"MI backflow onset (maximally entangled probe): {onset:.4f}")
    if abs(cfg.alpha - 0.4) < 1e-12 and abs(cfg.t0 - 1.0) < 1e-12:
        landmark = {"name": "t_nm_max_entangled", "value": onset, "target": 2.741,
                    "tol": 5e-3, "pass": bool(abs(onset - 2.741) <= 5e-3)}
    return {"experiment": "mi-scan", "mode": "phi+", "onset": onset,
            "intervals": list(report.intervals), "landmark": landmark}


def run_gadc_scan(cfg, out):
    eps_list = _eps_list(cfg.eps)
    grid = _grid(0.10, 0.35 + 1e-12, cfg.step)
    results = witness.gadc_epsilon_scan(eps_list, grid=grid)
    for res in results:
        print(f"eps={res.eps:g}: increase interval = {res.interval}")
    starts, ends = zip(*(res.interval or (float("nan"), float("nan")) for res in results))
    write_csv(out / "gadc-scan.csv", ["t_start", "t_end", "mi_max", "eps"],
              [list(starts), list(ends), [r.mi_max for r in results], [r.eps for r in results]])
    landmark = None
    if sorted(eps_list, reverse=True) == [1e-3, 1e-4, 1e-5]:
        ordered = sorted(results, key=lambda r: -r.eps)
        ok = all(r.interval is not None for r in ordered)
        if ok:
            tol = 5e-4
            for a, b in zip(ordered[:-1], ordered[1:]):
                ok = ok and b.interval[0] <= a.interval[0] + tol \
                    and b.interval[1] >= a.interval[1] - tol
            for r in ordered:
                ok = ok and T1_MINUS[0] < r.interval[0] < r.interval[1] < T1_MINUS[1]
        landmark = {"name": "gadc_nested_intervals", "pass": bool(ok),
                    "intervals": [list(r.interval) if r.interval else None for r in ordered]}
    return {"experiment": "gadc-scan",
            "results": [{"eps": r.eps, "interval": list(r.interval) if r.interval else None,
                         "precision_loss": r.precision_loss} for r in results],
            "landmark": landmark}


def run_probe_backflow(cfg, out):
    if not np.isfinite(cfg.t_max):
        raise ConfigParseError(f"--t-max must be finite, got {cfg.t_max}")
    probe = mepovm.build_probe(cfg.alpha, cfg.t0, cfg.tau, cfg.p)
    t_max = cfg.t_max if cfg.t_max > cfg.tau else cfg.tau + 1.0
    grid = _grid(0.0, t_max + cfg.step / 2, cfg.step)
    values = probe.closed_c2(grid)
    diffs = np.diff(values, prepend=values[0])
    flags = ((diffs > witness.ONSET_MARGIN) & (grid > cfg.tau)).astype(int)
    write_csv(out / "probe-backflow.csv", ["t", "value", "derivative", "flag"],
              [grid.tolist(), values.tolist(), diffs.tolist(), flags.tolist()])
    opt = mepovm.c2_A(probe.state_at(cfg.tau), cut=1, seed=cfg.seed)
    early = values[grid <= cfg.t0]
    late = values[grid >= cfg.tau]
    monotone_early = bool(np.all(np.diff(early) <= 1e-9))
    increasing_late = bool(np.all(np.diff(late) > 1e-9))
    closed_at_tau = probe.closed_c2(cfg.tau)
    print(f"C2 at tau (optimizer) = {opt.value:.8f}; closed form = {closed_at_tau:.8f}")
    landmark = None
    if (abs(cfg.alpha - 0.4) < 1e-12 and abs(cfg.t0 - 2.0) < 1e-12
            and abs(cfg.tau - 3.0) < 1e-12 and abs(cfg.p - 0.2) < 1e-12):
        landmark = {"name": "probe_backflow", "optimizer_at_tau": opt.value,
                    "target": 0.1, "tol": 1e-7,
                    "pass": bool(abs(opt.value - 0.1) <= 1e-7
                                 and monotone_early and increasing_late)}
    return {"experiment": "probe-backflow", "optimizer_at_tau": opt.value,
            "closed_form_at_tau": closed_at_tau,
            "monotone_before_t0": monotone_early, "increasing_after_tau": increasing_late,
            "landmark": landmark}


def run_hessian_check(cfg, out):
    if not 1 <= cfg.draws <= MAX_DRAWS:
        raise ConfigParseError(f"--draws must lie in [1, {MAX_DRAWS}], got {cfg.draws}")
    rng = np.random.default_rng(cfg.seed)
    draws = rng.uniform((-0.5, -0.5, -0.5, -0.2), (1.5, 1.5, 1.5, 0.2), size=(cfg.draws, 4))
    draws[np.abs(draws[:, 3]) < 1e-6, 3] = 0.05
    numeric = np.linalg.eigvalsh(witness.mi_rate_hessian(*draws.T))
    closed = np.sort([np.concatenate([witness.hessian_eigs_closed(*draw), np.zeros(6)])
                      for draw in draws])
    scale = np.maximum(1.0, np.max(np.abs(closed), axis=1))
    devs = np.max(np.abs(numeric - closed) / scale[:, None], axis=1)
    worst = float(np.max(devs))
    write_csv(out / "hessian-check.csv", ["t", "value"],
              [np.arange(cfg.draws, dtype=float).tolist(), devs.tolist()])
    print(f"max relative Hessian deviation over {cfg.draws} draws: {worst:.3e}")
    landmark = {"name": "hessian_closed_forms", "value": worst, "target": "<= 1e-3",
                "pass": bool(worst <= 1e-3)}
    return {"experiment": "hessian-check", "draws": cfg.draws, "max_deviation": worst,
            "landmark": landmark}


def run_povm_bound(cfg, out):
    value = mepovm.povm_count_bound(cfg.da, cfg.db)
    print(f"outcome bound for ({cfg.da}, {cfg.db}): {value:g}")
    write_csv(out / "povm-bound.csv", ["t", "value"], [[float(cfg.da)], [value]])
    table = {(2, 2): 3.0, (2, 6): 6.0, (8, 2): 8.0}
    landmark = None
    if (cfg.da, cfg.db) in table:
        target = table[(cfg.da, cfg.db)]
        landmark = {"name": "povm_count_bound", "value": value, "target": target,
                    "pass": bool(value == target)}
    return {"experiment": "povm-bound", "bound": value, "landmark": landmark}


def run_pg_counterexample(cfg, out):
    p1, p2, p3 = cfg.p1, cfg.p2, cfg.p3
    if p1 <= 0 or p2 < 0 or p2 > p1:  # NaN and inf fail the Ensemble check below
        raise ConfigParseError(f"need 0 < p1 and 0 <= p2 <= p1, got p1={p1}, p2={p2}")
    rho1 = np.eye(2) / 2
    rho2 = np.diag([1.0, 0.0]).astype(complex)
    rho3 = np.diag([0.0, 1.0]).astype(complex)
    proj = correlations.guessing_commuting(correlations.Ensemble((p1, p2, p3),
                                                                 (rho1, rho2, rho3)))
    mixed = (1 - p2 / p1) * rho1 + (p2 / p1) * rho2
    trans = correlations.guessing_commuting(correlations.Ensemble((p1, p2, p3),
                                                                  (mixed, rho1, rho3)))
    print(f"projective P_g = {proj.value:.6f}; transformed P_g = {trans.value:.6f}")
    write_csv(out / "pg-counterexample.csv", ["t", "value"],
              [[0.0, 1.0], [proj.value, trans.value]])
    landmark = None
    if (p1, p2, p3) == (0.4, 0.15, 0.45):
        landmark = {"name": "pg_counterexample",
                    "projective": proj.value, "transformed": trans.value,
                    "pass": bool(abs(proj.value - 0.65) < 1e-12
                                 and abs(trans.value - 0.725) < 1e-12)}
    return {"experiment": "pg-counterexample", "projective": proj.value,
            "transformed": trans.value, "landmark": landmark}


RUNNERS = {
    "physicality": run_physicality,
    "divisibility-scan": run_divisibility_scan,
    "eb-time": run_eb_time,
    "mi-scan": run_mi_scan,
    "gadc-scan": run_gadc_scan,
    "probe-backflow": run_probe_backflow,
    "hessian-check": run_hessian_check,
    "povm-bound": run_povm_bound,
    "pg-counterexample": run_pg_counterexample,
}


# Each experiment's own options as (flag, type, default[, help]); argparse
# stores --t-max as t_max.
OPTIONS = {
    "physicality": [("--alpha", float, 0.4)],
    "divisibility-scan": [("--alpha", float, 0.4), ("--t0", float, 1.0),
                          ("--channel", str, None, "channel JSON string"),
                          ("--t-max", float, 5.0), ("--step", float, DEFAULT_SCAN_STEP)],
    "eb-time": [("--alpha", float, 0.4), ("--t0", float, 2.0), ("--tol", float, 1e-3),
                ("--t-max", float, 20.0), ("--step", float, 1e-2)],
    "mi-scan": [("--alpha", float, 0.4), ("--t0", float, 1.0),
                ("--random", int, 0,
                 "number of Haar-random initial states (0: maximally entangled)"),
                ("--t-max", float, 4.0), ("--step", float, DEFAULT_SCAN_STEP)],
    "gadc-scan": [("--eps", str, "1e-3,1e-4,1e-5", "comma-separated list"),
                  ("--step", float, 2.5e-4)],
    "probe-backflow": [("--alpha", float, 0.4), ("--t0", float, 2.0), ("--tau", float, 3.0),
                       ("--p", float, 0.2), ("--t-max", float, 4.0), ("--step", float, 1e-2)],
    "hessian-check": [("--draws", int, 50)],
    "povm-bound": [("--da", int, 2), ("--db", int, 2)],
    "pg-counterexample": [("--p1", float, 0.4), ("--p2", float, 0.15), ("--p3", float, 0.45)],
}


def build_parser(only: str | None = None) -> _Parser:
    """The parser with a subparser per experiment; when `only` names an
    experiment, just that one's subparser, which parses its arguments alike
    and is cheaper to build."""
    parser = _Parser(prog="nmflow", description=__doc__)
    sub = parser.add_subparsers(dest="experiment")
    for name in [only] if only in RUNNERS else RUNNERS:
        p = sub.add_parser(name)
        for flag, kind, default, *text in OPTIONS[name]:
            p.add_argument(flag, type=kind, default=default, help=text[0] if text else None)
        p.add_argument("--out", default=".", help="output directory for CSV/JSON")
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--check", action="store_true",
                       help="exit 2 when a registered landmark check fails")
        p.add_argument("--seed", type=int, default=24,
                       help="RNG seed; the default reproduces the recorded landmarks, "
                            "including the random-state scan minimum")
    return parser


def _config_flags(path: str, experiment: str) -> list[str]:
    """The --config file as --flag=value items, only those that `experiment`
    has. `main` parses them ahead of the explicit flags, which therefore win;
    the = form keeps a value that starts with - from reading as an option."""
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigParseError(f"cannot read config: {exc}") from exc
    grid = cfg.get("grid", {}) if isinstance(cfg, dict) else None
    if not isinstance(grid, dict):
        raise ConfigParseError("config and its 'grid' must be JSON objects")
    name = cfg.get("experiment")
    if name is not None and name != experiment:
        raise ConfigParseError(f"config is for experiment {name!r}, invoked {experiment!r}")
    own = {flag for flag, *_ in OPTIONS[experiment]}
    flags = []
    if "channel" in cfg and "--channel" in own:
        flags.append("--channel=" + json.dumps(cfg["channel"]))
    for key in ("t_max", "step"):
        flag = "--" + key.replace("_", "-")
        if key in grid and flag in own:
            try:
                flags.append(f"{flag}={float(grid[key])!r}")
            except (TypeError, ValueError, OverflowError) as exc:  # an int beyond any float
                raise ConfigParseError(f"config grid {key} must be a number: {exc}") from exc
    if "seed" in cfg:
        if type(cfg["seed"]) is not int:  # bool and 1.7 are not seeds
            raise ConfigParseError(f"config seed must be an integer, got {cfg['seed']!r}")
        flags.append(f"--seed={cfg['seed']}")
    if "output" in cfg:
        if not isinstance(cfg["output"], str):
            raise ConfigParseError(f"config output must be a path, got {cfg['output']!r}")
        flags.append("--out=" + cfg["output"])
    return flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if args.experiment is None:
            raise ConfigParseError("an experiment name is required")
        if args.config:
            at = argv.index(args.experiment) + 1
            args = parser.parse_args(argv[:at] + _config_flags(args.config, args.experiment)
                                     + argv[at:])
        if args.seed < 0:
            raise ConfigParseError(f"--seed must be >= 0, got {args.seed}")
        thread_count()  # a malformed NMFLOW_THREADS fails here, before any work
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        summary = RUNNERS[args.experiment](args, out)
        write_summary(out / f"{args.experiment}.json", summary)
        landmark = summary.get("landmark")
        if args.check and landmark is not None and not landmark.get("pass", True):
            print("landmark check FAILED", file=sys.stderr)
            return 2
        return 0
    except NmflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
