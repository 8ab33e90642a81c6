"""CP/P classification of qubit maps and divisibility criteria.

The minimum Choi eigenvalue (the map is CP iff it is >= 0), also over times,
and exact positivity of affine qubit maps with a Bloch shift along z, both in
closed form; the physicality threshold
T(alpha) = (1/2) log(2^(1/alpha) - 1) of the quasi-eternal family, and a scan
classifier that splits single-parameter evolutions into CP-divisible and
not-P intervals, cross-checked against the intermediate maps of the channel.
Pointwise divisibility from a family's rates is the family's own
`divisibility(t)` in `channels`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadIntervalError, ConfigParseError, UnphysicalError
from .numutil import bisect_root

P_TOL = 1e-9
BOUNDARY_TOL = 1e-6  # bisection width of classify_intervals' interval boundaries
_MAX_SCAN_POINTS = 100_000  # most coarse-scan steps classify_intervals allows


class DivisibilityLabel(str, Enum):
    CP_DIVISIBLE = "CPDivisible"
    P_NOT_CP = "PNotCP"
    NOT_P = "NotP"


@dataclass(frozen=True)
class IntervalClass:
    """A classified time interval; adjacent intervals carry different labels."""

    t_start: float
    t_end: float
    label: DivisibilityLabel

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise BadIntervalError(f"need t_start < t_end, got [{self.t_start}, {self.t_end}]")


def min_choi_eig(qmap):
    """Smallest Choi eigenvalue of a qubit map with its Bloch shift w along z
    (else ConfigParseError), per map of a map over times: the smaller of the
    lower eigenvalues (1 +- lambda_z - |(w_z, lambda_x +- lambda_y)|)/2 of the
    Choi blocks on |00>, |11> (+) and on |01>, |10> (-)."""
    lx, ly, lz = qmap.lambdas
    wx, wy, wz = qmap.translation
    if np.count_nonzero(wx) or np.count_nonzero(wy):
        raise ConfigParseError(f"min_choi_eig needs a Bloch shift along z, got {qmap.translation}")
    return 0.5 * np.minimum(1.0 + lz - np.hypot(wz, lx + ly), 1.0 - lz - np.hypot(wz, lx - ly))


def is_p_qubit(qmap, tol: float = P_TOL) -> bool:
    """Positivity of an affine qubit map whose Bloch shift w lies along z, as
    in every family here: the minimum output eigenvalue (1 - sqrt(h*))/2 stays
    above -tol, where h* = max over unit n of ||diag(lambda) n + w||^2. With
    c = |n_z|, L = max(lambda_x^2, lambda_y^2), b = |lambda_z w_z| and
    gap = L - lambda_z^2, h = L + w_z^2 - gap c^2 + 2 b c on [0, 1], whose
    maximum is (|lambda_z| + |w_z|)^2 at c = 1 if b >= gap, else
    L + w_z^2 + b^2 / gap at c = b / gap. An x or y shift raises
    ConfigParseError.
    """
    lx, ly, lz = (float(l) for l in qmap.lambdas)
    wx, wy, wz = (float(w) for w in qmap.translation)
    if wx != 0.0 or wy != 0.0:
        raise ConfigParseError(f"is_p_qubit needs a Bloch shift along z, got {qmap.translation}")
    big, b = max(lx * lx, ly * ly), abs(lz * wz)
    gap = big - lz * lz
    h = (abs(lz) + abs(wz)) ** 2 if b >= gap else big + wz * wz + b * b / gap
    return 0.5 * (1.0 - math.sqrt(h)) >= -tol


def physicality_threshold(alpha: float) -> float:
    """T(alpha) = (1/2) log(2^(1/alpha) - 1): the quasi-eternal family with
    offset t0 is CPTP for all times iff t0 >= T(alpha)."""
    if not 0 < alpha < np.inf:  # also rejects NaN
        raise UnphysicalError(f"alpha must be positive and finite, got {alpha}")
    # log(2^(1/alpha) - 1) = x + log(1 - e^-x) with x = log(2)/alpha: no overflow
    # for small alpha, no cancellation for large alpha. Float division gives
    # x = inf, and T = inf, without a warning where log(2)/alpha overflows.
    x = math.log(2.0) / float(alpha)
    return 0.5 * float(x + np.log(-np.expm1(-x)))


def classify_intervals(gamma, t_max: float, step: float, channel) -> list[IntervalClass]:
    """Split [0, t_max] into CP-divisible (gamma >= 0) and not-P (gamma < 0)
    intervals for a single-parameter evolution with rate function gamma(t).

    A coarse scan of at most _MAX_SCAN_POINTS steps (finite t_max, step > 0,
    else BadIntervalError) and bisection to BOUNDARY_TOL locate the interval
    boundaries; rates oscillating faster than the step are out of scope. Each
    midpoint is cross-checked on channel.intermediate(t, t + dt): a map that
    is P but not CP would falsify the two-label classification and triggers a
    warning, as does a map that contradicts its label.
    """
    if not (0 < t_max < np.inf and 0 < step < np.inf and t_max / step <= _MAX_SCAN_POINTS):
        raise BadIntervalError(f"need finite t_max > 0 and step > 0 with t_max / step <= "
                               f"{_MAX_SCAN_POINTS}, got t_max={t_max}, step={step}")
    ts = [0.0, t_max]
    t = 0.0
    g_prev = gamma(0.0)
    while t < t_max:
        t_next = min(t + step, t_max)
        g_next = gamma(t_next)
        if g_prev == 0.0:
            ts.append(t)
        elif g_prev * g_next < 0:
            ts.append(bisect_root(gamma, t, t_next, tol=BOUNDARY_TOL))
        t, g_prev = t_next, g_next
    ts = sorted(set(ts))

    intervals: list[IntervalClass] = []
    for a, b in zip(ts[:-1], ts[1:]):
        mid = 0.5 * (a + b)
        label = DivisibilityLabel.CP_DIVISIBLE if gamma(mid) >= 0 else DivisibilityLabel.NOT_P
        if intervals and intervals[-1].label is label:
            intervals[-1] = IntervalClass(intervals[-1].t_start, b, label)
        else:
            intervals.append(IntervalClass(a, b, label))
        _check_interval_consistency(channel, mid, min(step, b - mid), label)
    return intervals


def _check_interval_consistency(channel, t: float, dt: float, label: DivisibilityLabel) -> None:
    v = channel.intermediate(t, t + dt)
    cp = min_choi_eig(v) >= -1e-7
    p = is_p_qubit(v, tol=1e-7)
    if (not cp) and p:
        warnings.warn(f"intermediate map at t={t:.6f} is P but not CP; "
                      "single-parameter classification premise violated")
    if label is DivisibilityLabel.CP_DIVISIBLE and not cp:
        warnings.warn(f"interval labeled CP-divisible but map at t={t:.6f} is not CP")
    if label is DivisibilityLabel.NOT_P and p:
        warnings.warn(f"interval labeled not-P but map at t={t:.6f} is P")
