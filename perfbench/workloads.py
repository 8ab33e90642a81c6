"""The benchmark's three workloads.

Each workload builds its fixed inputs from the run's seed, then hands out one
repetition at a time: a list of operations (calls into nmflow) that the
worker times as a whole, each paired with a check that compares the
operation's output with reference.py or with a property the method must
have. Checks run outside the timed region and outside tracing.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import shutil
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from tracer import EXPERIMENTS
from nmflow import channels, cli, correlations, divisibility, mepovm, witness
from nmflow.qmat import maximally_entangled

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Op:
    """One timed call and the check of its output (returns a list of failures)."""

    label: str
    fn: Callable[[], object]
    check: Callable[[object], list[str]]


def _close(label: str, value: float, target: float, tol: float) -> list[str]:
    if abs(value - target) <= tol:
        return []
    return [f"{label}: {value!r} differs from {target!r} by more than {tol:g}"]


def _derived_seed(*keys: int) -> int:
    return int(np.random.SeedSequence(keys).generate_state(1)[0])


def _mi(m, dims):
    # Looked up at call time, so that the traced run's wrapper sees the call.
    return correlations.mutual_information(m, dims)


class Workload:
    """Fixed inputs from the run's seed; repetitions of operations on them.

    The warm-up is one repetition unless a workload says otherwise; finish()
    gives the operations checked once at the end of a run.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def repetition(self, rep: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        return self.repetition(0)

    def finish(self) -> list[Op]:
        return []

    def close(self) -> None:
        """Release what the workload created on disk."""


# ---------------------------------------------------------------------------
# haar_scan: min_t_nm_scan at the criterion-06 configuration
# ---------------------------------------------------------------------------

class HaarScan(Workload):
    """`witness.min_t_nm_scan` on quasi_eternal(0.4, 1.0) over [0, 3] with step
    2e-3, STATES Haar states per repetition drawn from the run's seed."""

    STATES = 100
    SUBSAMPLE = 4
    LANDMARK_STATES, LANDMARK_SEED = 2000, 24
    ONSET_MARGIN, ONSET_SLACK = 1e-12, 1e-13
    ALPHA, T0 = 0.4, 1.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.channel = channels.quasi_eternal(self.ALPHA, self.T0)
        self.grid = np.arange(0.0, 3.0 + 1e-12, 2e-3)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        return ref.quasi_eternal_weights(self.ALPHA, self.T0, self.grid)

    def warmup(self) -> list[Op]:
        """The landmark itself: 2000 states at seed 24, minimum onset <= 2.55."""
        def check(res):
            onset = res[0]
            if onset <= ref.MIN_ONSET_BOUND_2000:
                return []
            return [f"landmark: min onset {onset!r} over 2000 states exceeds 2.55"]

        return [Op("landmark", lambda: witness.min_t_nm_scan(
            self.channel, self.LANDMARK_STATES, self.grid, seed=self.LANDMARK_SEED), check)]

    def repetition(self, rep: int) -> list[Op]:
        rep_seed = _derived_seed(self.seed, 1, rep)
        return [Op("min_t_nm_scan", lambda: witness.min_t_nm_scan(
            self.channel, self.STATES, self.grid, seed=rep_seed),
            lambda res: self._check_scan(res, rep_seed))]

    def _check_scan(self, res, rep_seed: int) -> list[str]:
        onset, best, onsets = res
        vectors = ref.haar_vectors(self.STATES, rep_seed)
        grid = self.grid
        errors = []
        if onsets.shape != (self.STATES,) or np.all(np.isnan(onsets)):
            return [f"onsets {onsets!r}: wrong shape or no state with an onset"]
        k = int(np.nanargmin(onsets))
        if best is None or np.max(np.abs(best - vectors[k])) > 1e-12:
            errors.append("argmin vector is not the sampled state with the earliest onset")
        i = int(round(onsets[k] / (grid[1] - grid[0])))
        if not grid[max(i - 1, 0)] - 1e-12 <= onset <= grid[min(i + 1, grid.size - 1)] + 1e-12:
            errors.append(f"refined onset {onset} outside the grid cell of index {i}")
        rng = np.random.default_rng(rep_seed)
        picks = [k] + [int(x) for x in rng.choice(self.STATES, self.SUBSAMPLE - 1, replace=False)]
        expected = ref.mi_series(vectors[picks], self.weights)
        got = witness.mi_series(self.channel, vectors[picks], grid, workers=1)
        dev = float(np.max(np.abs(got - expected)))
        if dev > 1e-10:
            errors.append(f"MI series deviates from the Kraus-sum reference by {dev:.3e}")
        early, late = ref.onset_index_bounds(expected, self.ONSET_MARGIN, self.ONSET_SLACK)
        for col, j in enumerate(picks):
            if np.isnan(onsets[j]):
                if late[col] != -1:
                    errors.append(f"state {j}: no onset reported, reference rises at {late[col]}")
                continue
            idx = int(round(onsets[j] / (grid[1] - grid[0])))
            lo, hi = early[col], late[col] if late[col] != -1 else grid.size
            if lo == -1 or not lo <= idx <= hi:
                errors.append(f"state {j}: onset index {idx}, reference allows [{lo}, {hi}]")
        return errors

    def finish(self) -> list[Op]:
        """The eternal model quasi_eternal(1, 0) shows no MI backflow."""
        vectors = ref.haar_vectors(50, _derived_seed(self.seed, 2))
        grid = np.arange(0.0, 6.0 + 1e-12, 5e-3)
        eternal = channels.quasi_eternal(1.0, 0.0)

        def check(series):
            rise = float(np.max(np.diff(series, axis=0)))
            if rise <= ref.ETERNAL_MAX_RISE:
                return []
            return [f"eternal control: forward MI difference {rise:.3e} > 1e-9"]

        return [Op("eternal_control", lambda: witness.mi_series(eternal, vectors, grid), check)]


# ---------------------------------------------------------------------------
# optimize: small dense optimizer calls
# ---------------------------------------------------------------------------

class Optimize(Workload):
    """c2_A see-saws, is_p_qubit on GADC intermediate maps, classify_intervals
    with its channel cross-check, and find_t_eb."""

    GENERIC_SEED = 24
    GENERIC_DIMS = ((2, 2), (2, 2), (2, 6), (2, 6))
    RESTARTS = 3
    P_MAPS, P_DT, P_MARGIN = 8, 1e-2, 1e-6
    PROBE = (0.4, 2.0, 3.0, 0.2)

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(self.GENERIC_SEED)
        self.generic = [(ref.random_density(rng, a * b), (a, b)) for a, b in self.GENERIC_DIMS]
        alpha, t0, tau, p = self.PROBE
        self.probe_state = mepovm.build_probe(alpha, t0, tau, p).state_at(tau)
        self.gadc = channels.GadcChannel()
        self.amp_damp = channels.AmpDampChannel(
            lambda t: float(np.exp(-t / 2) * (1 + 0.4 * np.sin(4 * t))), p=0.3,
            dg_dt=lambda t: float(np.exp(-t / 2) * (-0.5 * (1 + 0.4 * np.sin(4 * t))
                                                   + 1.6 * np.cos(4 * t))))

    @functools.cached_property
    def classify_roots(self) -> list[float]:
        return ref.sign_changes(ref.amp_damp_gamma, 3.0, 5e-3)

    @functools.cached_property
    def t_eb_root(self) -> float:
        return ref.t_eb_root(0.4, 2.0)

    def repetition(self, rep: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, rep])
        ops = []
        for k, (rho, dims) in enumerate(self.generic):
            ops.append(Op(f"c2_A generic {dims} #{k}", lambda rho=rho, dims=dims: mepovm.c2_A(
                rho, dims, restarts=self.RESTARTS, seed=0),
                lambda res, rho=rho, dims=dims: self._check_generic(res, rho, dims)))
        for d_b in (2, 6):
            r1, r2 = ref.random_density(rng, d_b), ref.random_density(rng, d_b)
            cq = 0.5 * (np.kron(np.diag([1.0, 0.0]), r1) + np.kron(np.diag([0.0, 1.0]), r2))
            ops.append(Op(f"c2_A classical-quantum (2, {d_b})", lambda cq=cq, d_b=d_b: mepovm.c2_A(
                cq, (2, d_b), restarts=self.RESTARTS, seed=rep),
                lambda res, r1=r1, r2=r2: _close("c2_A on a classical-quantum state", res.value,
                                                 ref.trace_norm(r1 - r2) / 4.0, 1e-9)))
            prod = np.kron(ref.random_density(rng, 2), ref.random_density(rng, d_b))
            ops.append(Op(f"c2_A product (2, {d_b})", lambda prod=prod, d_b=d_b: mepovm.c2_A(
                prod, (2, d_b), restarts=self.RESTARTS, seed=rep),
                lambda res: _close("c2_A on a product state", res.value, 0.0, 1e-9)))
        ops.append(Op("c2_A probe at tau", lambda: mepovm.c2_A(
            self.probe_state, cut=1, seed=self.seed),
            lambda res: _close("c2_A on the probe at tau", res.value, self.PROBE[3] / 2,
                               ref.PROBE_TARGET_TOL)))
        ts = rng.uniform(0.0, 0.5, self.P_MAPS)
        maps = [self.gadc.intermediate(float(t), float(t) + self.P_DT) for t in ts]
        ops.append(Op("is_p_qubit", lambda: [divisibility.is_p_qubit(m) for m in maps],
                      lambda verdicts: self._check_positivity(verdicts, maps, ts)))
        ops.append(Op("classify_intervals", self._classify, self._check_classify))
        ops.append(Op("find_t_eb", lambda: witness.find_t_eb(channels.quasi_eternal(0.4, 2.0)),
                      self._check_t_eb))
        return ops

    @staticmethod
    def _check_generic(res, rho, dims) -> list[str]:
        d_a, d_b = dims
        x = np.asarray(res.x)
        rho_a = ref.marginal_a(rho, d_a, d_b)
        errors = _close("c2_A value recomputed from its X", res.value,
                        ref.steered_value(rho, d_a, d_b, x), 1e-9)
        eig = np.linalg.eigvalsh((x + x.conj().T) / 2.0)
        if eig[0] < -1.0 - 1e-9 or eig[-1] > 1.0 + 1e-9:
            errors.append(f"c2_A X has eigenvalues outside [-1, 1]: {eig}")
        errors += _close("Tr(rho_A X)", float(np.real(np.trace(rho_a @ x))), 0.0, 1e-8)
        floor = ref.steered_value(rho, d_a, d_b, ref.eigenbasis_me_x(rho_a))
        if not floor - 1e-9 <= res.value <= 0.5:
            errors.append(f"c2_A value {res.value} outside [{floor}, 0.5]")
        return errors

    def _check_positivity(self, verdicts, maps, ts) -> list[str]:
        errors = []
        for verdict, qmap, t in zip(verdicts, maps, ts):
            lam, w = ref.gadc_intermediate(float(t), float(t) + self.P_DT)
            if max(np.max(np.abs(np.subtract(qmap.lambdas, lam))),
                   np.max(np.abs(np.subtract(qmap.translation, w)))) > 1e-10:
                errors.append(f"GADC intermediate map at t={t} differs from its closed form")
            worst = ref.bloch_max_norm(lam, w)
            if abs(worst - 1.0) > self.P_MARGIN and verdict != (worst <= 1.0):
                errors.append(f"is_p_qubit at t={t}: {verdict}, dense Bloch maximum {worst}")
        return errors

    def _classify(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            intervals = divisibility.classify_intervals(self.amp_damp.gamma, t_max=3.0,
                                                        step=5e-3, channel=self.amp_damp)
        return intervals, [str(w.message) for w in caught]

    def _check_classify(self, res) -> list[str]:
        intervals, caught = res
        errors = [f"classify_intervals cross-check warned: {m}" for m in caught]
        bounds = [iv.t_start for iv in intervals[1:]]
        if len(bounds) != len(self.classify_roots) or any(
                abs(a - b) > 1e-5 for a, b in zip(bounds, self.classify_roots)):
            errors.append(f"interval boundaries {bounds} vs roots {self.classify_roots}")
        for iv in intervals:
            cp = ref.amp_damp_gamma(0.5 * (iv.t_start + iv.t_end)) >= 0
            if (iv.label is divisibility.DivisibilityLabel.CP_DIVISIBLE) != cp:
                errors.append(f"interval {iv} has the wrong label")
        return errors

    def _check_t_eb(self, t_eb) -> list[str]:
        lo, hi = ref.T_EB_WINDOW
        errors = [] if lo <= t_eb <= hi else [f"t_EB {t_eb} outside [{lo}, {hi}]"]
        return errors + _close("t_EB against max_k p_k = 1/2", t_eb, self.t_eb_root, 1e-3)


# ---------------------------------------------------------------------------
# cli_landmarks: the nine experiments plus one tabulated-rate scan
# ---------------------------------------------------------------------------

class CliLandmarks(Workload):
    """cli.main for every experiment at its landmark configuration with --check,
    plus scan_backflow of phi+ under the README's tabulated dephasing channel."""

    DEPHASING = {"family": "dephasing", "gamma": [[0, 1], [5, -0.3]]}
    DEPHASING_ROOT = 5.0 / 1.3  # where the interpolated rate 1 - 0.26 t turns negative

    def __init__(self, seed: int):
        super().__init__(seed)
        self.argvs = [[name, "--seed", str(seed)] for name in EXPERIMENTS]
        traj_grid = np.arange(0.0, 5.0, 4e-3)
        self.dephasing = witness.Trajectory(maximally_entangled(2),
                                            channels.channel_from_json(self.DEPHASING),
                                            (2, 2), traj_grid)
        self.csv_hashes: dict[str, str] = {}
        self._tmp: tempfile.TemporaryDirectory | None = None
        self._out: Path | None = None

    def repetition(self, rep: int) -> list[Op]:
        """Each repetition writes into a fresh directory; the previous one is removed."""
        if self._tmp is None:
            OUT_DIR.mkdir(exist_ok=True)
            self._tmp = tempfile.TemporaryDirectory(dir=OUT_DIR)
        if self._out is not None:
            shutil.rmtree(self._out)
        out = self._out = Path(self._tmp.name) / f"rep{rep}"
        out.mkdir()
        ops = [Op(argv[0], lambda argv=argv: self._main(argv, out),
                  lambda code, name=argv[0]: self._check_cli(name, code, out))
               for argv in self.argvs]
        ops.append(Op("scan_backflow tabulated dephasing",
                      lambda: witness.scan_backflow(_mi, self.dephasing), self._check_dephasing))
        return ops

    def close(self) -> None:
        if self._tmp is not None:
            self._tmp.cleanup()

    @staticmethod
    def _main(argv, out: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv + ["--out", str(out), "--check"])

    def _check_cli(self, name: str, code: int, out: Path) -> list[str]:
        errors = [] if code == 0 else [f"{name}: exit code {code}"]
        summary = json.loads((out / f"{name}.json").read_text(encoding="utf-8"))
        errors += getattr(self, "_summary_" + name.replace("-", "_"))(summary)
        digest = hashlib.sha256((out / f"{name}.csv").read_bytes()).hexdigest()
        if self.csv_hashes.setdefault(name, digest) != digest:
            errors.append(f"{name}: CSV differs from the first repetition")
        return errors

    def _check_dephasing(self, report) -> list[str]:
        errors = _close("tabulated dephasing onset", report.onsets[0] if report.onsets
                        else float("nan"), self.DEPHASING_ROOT, 1e-3)
        if len(report.intervals) != 1 or report.intervals[0][1] != self.dephasing.grid[-1]:
            errors.append(f"tabulated dephasing intervals {report.intervals}")
        return errors

    # Summary checks against the paper targets.

    @staticmethod
    def _summary_physicality(s) -> list[str]:
        target, tol = ref.PHYSICALITY_TARGET
        return (_close("T(2/5)", s["threshold"], target, tol)
                + _close("T(2/5) closed form", s["threshold"], ref.physicality_threshold(0.4),
                         1e-12))

    @staticmethod
    def _summary_divisibility_scan(s) -> list[str]:
        # quasi_eternal(0.4, 1) on the default grid: every rate is >= 0 up to
        # t0 = 1, after it only the pairwise sums are.
        grid = np.arange(0.0, 5.0 + 5e-4, 1e-3)
        total, cp = grid.size, int(np.sum(grid <= 1.0))
        want = {"CPDivisible": cp / total, "PNotCP": (total - cp) / total}
        got = s["fractions"]
        if set(got) != set(want) or any(abs(got[k] - want[k]) > 1.5 / total for k in want):
            return [f"divisibility-scan fractions {got}, expected {want}"]
        return []

    @staticmethod
    def _summary_eb_time(s) -> list[str]:
        lo, hi = ref.T_EB_WINDOW
        return [] if lo <= s["t_eb"] <= hi else [f"t_EB {s['t_eb']} outside [{lo}, {hi}]"]

    @staticmethod
    def _summary_mi_scan(s) -> list[str]:
        target, tol = ref.MI_ONSET_TARGET
        return _close("phi+ MI onset", s["onset"], target, tol)

    @staticmethod
    def _summary_gadc_scan(s) -> list[str]:
        results = sorted(s["results"], key=lambda r: -r["eps"])
        if [r["eps"] for r in results] != [1e-3, 1e-4, 1e-5] or any(
                r["interval"] is None for r in results):
            return [f"gadc-scan results {results}"]
        lo_w, hi_w = ref.GADC_NON_CP_WINDOW
        tol = ref.GADC_NESTING_TOL
        errors = []
        for r in results:
            lo, hi = r["interval"]
            if not lo_w < lo < hi < hi_w:
                errors.append(f"eps={r['eps']}: interval {r['interval']} outside the window")
        for a, b in zip(results[:-1], results[1:]):
            if not (b["interval"][0] <= a["interval"][0] + tol
                    and b["interval"][1] >= a["interval"][1] - tol):
                errors.append(f"intervals not nested: {a['interval']} then {b['interval']}")
        return errors

    @staticmethod
    def _summary_probe_backflow(s) -> list[str]:
        errors = _close("probe optimizer at tau", s["optimizer_at_tau"], 0.1, ref.PROBE_TARGET_TOL)
        errors += _close("probe closed form at tau", s["closed_form_at_tau"], 0.1, 1e-12)
        if not (s["monotone_before_t0"] and s["increasing_after_tau"]):
            errors.append("probe C2 not monotone before t0 or not increasing after tau")
        return errors

    @staticmethod
    def _summary_hessian_check(s) -> list[str]:
        if s["draws"] == 50 and s["max_deviation"] <= ref.HESSIAN_TOL:
            return []
        return [f"hessian-check deviation {s['max_deviation']} over {s['draws']} draws"]

    @staticmethod
    def _summary_povm_bound(s) -> list[str]:
        return (_close("ME-POVM outcome bound (2, 2)", s["bound"], ref.POVM_BOUND_22, 0.0)
                + _close("outcome bound against a dense minimum", s["bound"],
                         ref.povm_count_bound(2, 2), 1e-4))

    @staticmethod
    def _summary_pg_counterexample(s) -> list[str]:
        proj, trans = ref.PG_VALUES
        return (_close("projective P_g", s["projective"], proj, 1e-12)
                + _close("transformed P_g", s["transformed"], trans, 1e-12))


WORKLOADS = {"haar_scan": HaarScan, "optimize": Optimize, "cli_landmarks": CliLandmarks}
