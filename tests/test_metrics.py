import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import auc_via_rankdata
import tarp.metrics
from tarp.metrics import (
    auc_score,
    calibration_msd,
    evaluate_classification,
    evaluate_regression,
)


class TestEvaluateRegression:
    def test_hand_computed_example(self):
        report = evaluate_regression(
            pred=[0.0, 0.0, 0.0],
            intervals=[(-0.5, 0.5)] * 3,
            y_true=[0.0, 1.0, 2.0],
        )
        assert report.mspe == pytest.approx(5.0 / 3.0)
        assert report.ecp == pytest.approx(1.0 / 3.0)
        assert report.mean_width == pytest.approx(1.0)

    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        report = evaluate_regression(y, np.column_stack([y - 1, y + 1]), y)
        assert report.mspe == 0.0

    def test_total_coverage(self):
        y = np.array([-5.0, 0.0, 5.0])
        report = evaluate_regression(np.zeros(3), [(-10, 10)] * 3, y)
        assert report.ecp == 1.0

    def test_boundary_counts_as_covered(self):
        report = evaluate_regression([0.0], [(0.0, 1.0)], [0.0])
        assert report.ecp == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_regression([0.0, 1.0], [(0, 1)], [0.0])

    @given(st.floats(-50, 50), st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_translation_invariance(self, shift, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(20)
        pred = rng.standard_normal(20)
        base = evaluate_regression(pred, np.column_stack([pred - 1, pred + 1]), y)
        moved = evaluate_regression(
            pred + shift,
            np.column_stack([pred + shift - 1, pred + shift + 1]),
            y + shift,
        )
        assert moved.mspe == pytest.approx(base.mspe, rel=1e-9, abs=1e-9)


class TestAuc:
    def test_perfect_separation(self):
        report = evaluate_classification(
            [0.1, 0.2, 0.8, 0.9], [0.0, 0.0, 1.0, 1.0]
        )
        assert report.misclassification_rate == 0.0
        assert report.auc == 1.0

    def test_random_probabilities_near_half(self):
        rng = np.random.default_rng(0)
        prob = rng.random(100_000)
        y = (rng.random(100_000) < 0.5).astype(float)
        assert auc_score(prob, y) == pytest.approx(0.5, abs=0.01)

    def test_ties_get_half_credit(self):
        assert auc_score([0.5, 0.5, 0.5, 0.5], [0, 0, 1, 1]) == 0.5

    def test_single_class_undefined(self):
        report = evaluate_classification([0.2, 0.8], [1.0, 1.0])
        assert report.auc is None

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_invariance_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        prob = rng.random(40)
        y = (rng.random(40) < 0.5).astype(float)
        if y.min() == y.max():
            return
        transformed = 1.0 / (1.0 + np.exp(-(3.0 * prob - 1.0)))  # strictly increasing
        assert auc_score(prob, y) == pytest.approx(
            auc_score(transformed, y), abs=1e-12
        )

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_equals_rankdata_oracle_on_ties(self, data):
        # a few distinct levels, both signed zeros among them, so most
        # scores tie; the average ranks are exact, so AUC matches bit for bit
        levels = data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)
        ) + [0.0, -0.0]
        n = data.draw(st.integers(1, 60))
        prob = data.draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
        y = data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
        assert auc_score(prob, y) == auc_via_rankdata(prob, y)


class TestCalibrationMsd:
    def test_exact_probabilities_on_balanced_classes(self):
        # bins 1 and 10 occupied: ((0-0.05)^2 + (1-0.95)^2) / 2
        y = np.array([0.0, 0.0, 1.0, 1.0])
        assert calibration_msd(y, y) == pytest.approx(0.0025)

    def test_empty_bins_skipped(self):
        prob = np.array([0.55, 0.55, 0.55, 0.55])
        y = np.array([1.0, 0.0, 1.0, 0.0])
        # single occupied bin [0.5, 0.6): (0.5 - 0.55)^2
        assert calibration_msd(prob, y) == pytest.approx(0.0025)

    def test_top_bin_closed_at_one(self):
        assert calibration_msd(np.array([1.0]), np.array([1.0])) == pytest.approx(
            (1.0 - 0.95) ** 2
        )


class TestEvaluateClassification:
    def test_threshold_moves_misclassification(self, monkeypatch):
        prob = np.array([0.4, 0.6])
        y = np.array([0.0, 0.0])
        assert evaluate_classification(prob, y).misclassification_rate == 0.5
        monkeypatch.setattr(tarp.metrics, "THRESHOLD", 0.7)
        assert evaluate_classification(prob, y).misclassification_rate == 0.0

    def test_rejects_out_of_range_probabilities(self):
        with pytest.raises(ValueError):
            evaluate_classification([1.2], [1.0])

    @pytest.mark.parametrize(
        "score", [np.nan, np.inf, -np.inf, -0.1, 1.5], ids=str
    )
    @pytest.mark.parametrize(
        "evaluate", [evaluate_classification, auc_score, calibration_msd],
        ids=lambda fn: fn.__name__,
    )
    def test_rejects_non_finite_or_out_of_range_scores(self, evaluate, score):
        # NaN fails every comparison, so a range test written as
        # "prob < 0 or prob > 1" used to let it through
        with pytest.raises(ValueError, match=r"finite and lie in \[0,1\]"):
            evaluate([score, 0.5, 0.7], [0.0, 1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_classification([0.5, 0.5], [1.0])


class TestEcpMonotonicity:
    def test_nested_central_intervals(self):
        # nested intervals from one predictive family: coverage is monotone
        from oracles import central_interval

        rng = np.random.default_rng(1)
        location = rng.standard_normal(200)
        y = location + rng.standard_normal(200)
        ecps = []
        for level in (0.2, 0.5, 0.8, 0.95):
            lo, hi = central_interval(12.0, location, np.ones(200), level)
            report = evaluate_regression(location, np.column_stack([lo, hi]), y)
            ecps.append(report.ecp)
        assert all(a <= b for a, b in zip(ecps, ecps[1:]))
