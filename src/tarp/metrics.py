"""Held-out evaluation: MSPE, interval coverage/width, classification scores.

Coverage treats intervals as closed. AUC follows the rank (Mann-Whitney)
definition with half credit for ties, and the probability-calibration score
averages squared deviations between empirical positive fractions and bin
midpoints over the nonempty of ten equal probability bins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# a probability at or above THRESHOLD is classed as 1
THRESHOLD = 0.5
CALIBRATION_BINS = 10


@dataclass(frozen=True)
class RegressionReport:
    mspe: float
    ecp: float
    mean_width: float


@dataclass(frozen=True)
class ClassificationReport:
    misclassification_rate: float
    auc: Optional[float]
    msd_calibration: float


def evaluate_regression(pred, intervals, y_true) -> RegressionReport:
    """MSPE, empirical coverage of the (closed) intervals, and mean width.

    ``intervals`` is an (n, 2) array-like of [lower, upper] bounds.
    """
    pred = np.asarray(pred, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.float64)
    bounds = np.asarray(intervals, dtype=np.float64)
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise ValueError(f"intervals must have shape (n, 2), got {bounds.shape}")
    if not pred.shape == y_true.shape == (bounds.shape[0],):
        raise ValueError(
            f"length mismatch: pred {pred.shape}, intervals {bounds.shape}, "
            f"y_true {y_true.shape}"
        )
    residuals = y_true - pred
    covered = (y_true >= bounds[:, 0]) & (y_true <= bounds[:, 1])
    return RegressionReport(
        mspe=float(np.mean(residuals**2)),
        ecp=float(np.mean(covered)),
        mean_width=float(np.mean(bounds[:, 1] - bounds[:, 0])),
    )


def _check_probabilities(prob: np.ndarray) -> None:
    # written so that NaN fails too: every comparison with NaN is false
    if not np.all((prob >= 0.0) & (prob <= 1.0)):
        raise ValueError("probabilities must be finite and lie in [0,1]")


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``, tied values sharing their mean rank.

    A tie group at sorted positions start+1..end gets (start + 1 + end) / 2,
    an integer or half-integer, so every rank is exact in float64 and equals
    scipy's ``rankdata(values)`` (method "average") bit for bit.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


def auc_score(prob, y_true) -> Optional[float]:
    """Rank-based AUC with half credit for ties; None if one class is absent.

    Scores that are not finite or fall outside [0, 1] raise ValueError.
    """
    prob = np.asarray(prob, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.float64)
    _check_probabilities(prob)
    n_pos = int(np.sum(y_true == 1.0))
    n_neg = int(np.sum(y_true == 0.0))
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _average_ranks(prob)  # average ranks handle ties
    rank_sum = float(np.sum(ranks[y_true == 1.0]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def calibration_msd(prob, y_true) -> float:
    """Mean squared gap between bin positive-fraction and bin midpoint.

    Probabilities are binned into ``CALIBRATION_BINS`` equal subintervals
    of [0, 1] (last bin closed at 1); empty bins are skipped. Probabilities
    that are not finite or fall outside [0, 1] raise ValueError.
    """
    prob = np.asarray(prob, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.float64)
    _check_probabilities(prob)
    bins = np.minimum((prob * CALIBRATION_BINS).astype(int), CALIBRATION_BINS - 1)
    gaps = []
    for k in range(CALIBRATION_BINS):
        members = bins == k
        if not members.any():
            continue
        midpoint = (k + 0.5) / CALIBRATION_BINS
        gaps.append((float(y_true[members].mean()) - midpoint) ** 2)
    return float(np.mean(gaps))


def evaluate_classification(prob, y_true) -> ClassificationReport:
    prob = np.asarray(prob, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.float64)
    if prob.shape != y_true.shape:
        raise ValueError(
            f"length mismatch: prob {prob.shape}, y_true {y_true.shape}"
        )
    _check_probabilities(prob)
    labels = (prob >= THRESHOLD).astype(np.float64)
    return ClassificationReport(
        misclassification_rate=float(np.mean(labels != y_true)),
        auc=auc_score(prob, y_true),
        msd_calibration=calibration_msd(prob, y_true),
    )

