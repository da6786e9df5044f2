"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The full-scale reproduction (criterion 7) takes ~100 s on two cores
and only runs when TARP_RUN_FULL_SCALE=1; everything else is desk scale.
"""

import os
import time

import numpy as np
import pytest
from oracles import central_interval, dense_map, location_via_gram_inverse
from scipy.linalg import cholesky

from tarp.cli import _derive_seed, main
from tarp.data import Dataset, load_csv, write_csv
from tarp.ensemble import (
    fit_tarp,
    predict_tarp,
    sample_config_grid,
)
from tarp.metrics import evaluate_classification, evaluate_regression
from tarp.posterior import fit_gaussian, predictive
from tarp.projection import (
    compute_ris_pcr,
    sample_ris_rp,
)
from tarp.screening import (
    inclusion_probabilities,
    marginal_correlations,
    sample_inclusion,
)
from tarp.simgen import SchemeSpec, generate


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_conjugate_posterior_oracle():
    """Analytic moments match a 10^6-draw composition sampler; two routes agree."""
    started = time.perf_counter()
    draws = 10**6
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(6, 13))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(m, 9))
        X = rng.standard_normal((n, p))
        R = rng.standard_normal((m, p))
        y = rng.standard_normal(n)
        post = fit_gaussian(X @ R.T, y)
        a_sigma = b_sigma = 0.02

        mu_alt = location_via_gram_inverse(X, R, y)
        np.testing.assert_allclose(post.location, mu_alt, atol=1e-10)

        # composition sampler: sigma^2 ~ IG(a + n/2, b + r/2), theta | sigma^2
        # normal
        ig_shape = a_sigma + 0.5 * n
        ig_rate = b_sigma + 0.5 * post.residual_quadratic
        sigma2 = ig_rate / rng.gamma(ig_shape, 1.0, size=draws)
        L = cholesky(post.precision_inverse, lower=True)
        theta = post.location + np.sqrt(sigma2)[:, None] * (
            rng.standard_normal((draws, m)) @ L.T
        )
        mean_se = theta.std(axis=0, ddof=1) / np.sqrt(draws)
        mean_dev = np.abs(theta.mean(axis=0) - post.location) / mean_se
        assert np.all(mean_dev < 3.0)
        worst = max(worst, float(mean_dev.max()))

        # the coefficient t: df = n + 2a, scale (r + 2b) / df (Z'Z + I)^-1
        df = n + 2.0 * a_sigma
        scale = (post.residual_quadratic + 2.0 * b_sigma) / df * post.precision_inverse
        analytic_cov = scale * df / (df - 2.0)
        centered = theta - theta.mean(axis=0)
        for j in range(m):
            for k in range(j, m):
                products = centered[:, j] * centered[:, k]
                se = products.std(ddof=1) / np.sqrt(draws)
                dev = abs(products.mean() - analytic_cov[j, k]) / se
                assert dev < 3.0
                worst = max(worst, dev)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(1, f"50 instances, worst deviation {worst:.2f} SE, {elapsed:.1f}s")


def test_criterion_2_well_specified_calibration():
    """Data from the compressed model itself: 50% interval ECP in [0.48, 0.52]."""
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    a_sigma = b_sigma = 3.0
    hits = total = 0
    for _ in range(100):
        n, m = 100, 3
        Z = rng.standard_normal((n, m))
        sigma2 = b_sigma / rng.gamma(a_sigma, 1.0)
        theta = np.sqrt(sigma2) * rng.standard_normal(m)
        y = Z @ theta + np.sqrt(sigma2) * rng.standard_normal(n)
        post = fit_gaussian(Z, y)
        Z_new = rng.standard_normal((100, m))
        y_new = Z_new @ theta + np.sqrt(sigma2) * rng.standard_normal(100)
        # the paper's predictive t: df = n + 2a, s^2 = (r + 2b) / df
        df = n + 2.0 * a_sigma
        s2 = (post.residual_quadratic + 2.0 * b_sigma) / df
        lo, hi = central_interval(df, *predictive(post, Z_new, s2), 0.5)
        hits += int(np.sum((y_new >= lo) & (y_new <= hi)))
        total += 100
    ecp = hits / total
    elapsed = time.perf_counter() - started
    assert total == 10_000
    assert 0.48 <= ecp <= 0.52
    assert elapsed < 60.0
    report(2, f"ECP {ecp:.4f} over 10^4 points, {elapsed:.1f}s")


def test_criterion_3_projection_moments():
    """Entry moments of the three-point map; orthonormality and contraction of SVD map."""
    started = time.perf_counter()

    entries = dense_map(
        sample_ris_rp(np.ones(1000, dtype=bool), m=1000, psi=1 / 6, seed=2024)
    ).ravel()
    assert entries.size == 10**6
    mean_dev = abs(entries.mean())
    var_dev = abs(entries.var() - 1.0)
    assert mean_dev < 0.005
    assert var_dev < 0.01

    rng = np.random.default_rng(1)
    X = rng.standard_normal((50, 200))
    gamma = rng.random(200) < 0.5
    proj, _ = compute_ris_pcr(X, gamma, m=20)
    R = dense_map(proj)
    orth_dev = float(np.abs(R @ R.T - np.eye(proj.m)).max())
    assert orth_dev < 1e-8
    z_norms = np.linalg.norm(X @ R.T, axis=1)
    x_norms = np.linalg.norm(X[:, gamma], axis=1)
    assert np.all(z_norms <= x_norms * (1 + 1e-12))

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        3,
        f"entry mean {mean_dev:.2e}, var dev {var_dev:.2e}, "
        f"orth dev {orth_dev:.1e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_screening_properties():
    """Max probability 1, affine invariance, and argmax concentration at delta=50."""
    started = time.perf_counter()
    rng = np.random.default_rng(4)

    X = rng.standard_normal((60, 40))
    y = X[:, 3] + 0.5 * rng.standard_normal(60)
    r = marginal_correlations(X, y)
    q = inclusion_probabilities(r, 2.0)
    assert q.max() == 1.0

    r_affine = marginal_correlations(X, -2.5 * y + 7.0)
    np.testing.assert_allclose(np.abs(r), np.abs(r_affine), atol=1e-10)
    np.testing.assert_allclose(
        q, inclusion_probabilities(r_affine, 2.0), atol=1e-10
    )

    correlations = rng.uniform(0.2, 0.7, 50)
    correlations[17] = 0.9  # unique maximum
    q50 = inclusion_probabilities(correlations, 50.0)
    exact = sum(
        np.flatnonzero(sample_inclusion(q50, rng)).tolist() == [17] for _ in range(100)
    )
    assert exact >= 99
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(4, f"argmax-only draws {exact}/100 at delta=50, {elapsed:.1f}s")


def _read_summary(metrics_path):
    rows = {}
    for line in metrics_path.read_text().splitlines()[1:]:
        key, mspe, ecp, width = line.split(",")
        rows[key] = (float(mspe), float(ecp), float(width))
    return rows


def test_criterion_5_desk_scale_rank3_coverage(tmp_path):
    """Scheme III at p=2000: mean ECP of the 50% interval in the reported bands."""
    started = time.perf_counter()
    ecps = {}
    for variant in ("ris_rp", "ris_pcr"):
        prefix = tmp_path / f"s3_{variant}"
        code = main([
            "bench", "--scheme", "III", "--n", "200", "--test-size", "100",
            "--p", "2000", "--replicates", "30", "--ensemble-size", "50",
            "--variant", variant, "--seed", "1", "--threads", "2",
            "--out-prefix", str(prefix),
        ])
        assert code == 0
        summary = _read_summary(tmp_path / f"s3_{variant}_metrics.csv")
        ecps[variant] = summary["mean"][1]
    elapsed = time.perf_counter() - started
    assert 0.40 <= ecps["ris_rp"] <= 0.60
    assert 0.40 <= ecps["ris_pcr"] <= 0.62
    assert elapsed < 15 * 60
    report(
        5,
        f"mean ECP ris_rp {ecps['ris_rp']:.3f}, ris_pcr {ecps['ris_pcr']:.3f}, "
        f"{elapsed / 60:.1f} min",
    )


def test_criterion_6_targeted_beats_untargeted():
    """Scheme I medians: both targeted variants strictly below the plain baseline."""
    started = time.perf_counter()
    n, p, n_test, reps, ensemble = 200, 2000, 100, 20, 50
    medians = {}
    # the untargeted baseline is ris_rp at delta 0, which screens nothing
    methods = {
        "ris_rp": ("ris_rp", None),
        "ris_pcr": ("ris_pcr", None),
        "plain_rp_baseline": ("ris_rp", 0.0),
    }
    for method, (variant, delta) in methods.items():
        mspes = []
        for rep in range(reps):
            data, _ = generate(
                SchemeSpec(scheme="I", n=n + n_test, p=p,
                           seed=_derive_seed(6, rep, 0))
            )
            train = Dataset(data.design[:n], data.response[:n])
            master = _derive_seed(6, rep, 1)
            configs = sample_config_grid(n, p, ensemble, variant=variant,
                                         master_seed=master)
            model = fit_tarp(train, configs, delta=delta, master_seed=master, threads=2)
            pred = predict_tarp(model, data.design[n:], level=0.5)
            result = evaluate_regression(
                pred.point,
                np.column_stack([pred.lower, pred.upper]),
                data.response[n:],
            )
            mspes.append(result.mspe)
        medians[method] = float(np.median(mspes))
    elapsed = time.perf_counter() - started
    assert medians["ris_rp"] < medians["plain_rp_baseline"]
    assert medians["ris_pcr"] < medians["plain_rp_baseline"]
    assert elapsed < 20 * 60
    report(
        6,
        f"median MSPE ris_rp {medians['ris_rp']:.2f}, "
        f"ris_pcr {medians['ris_pcr']:.2f}, "
        f"baseline {medians['plain_rp_baseline']:.2f}, {elapsed / 60:.1f} min",
    )


@pytest.mark.skipif(
    os.environ.get("TARP_RUN_FULL_SCALE") != "1",
    reason="long benchmark (~100 s on 2 cores); set TARP_RUN_FULL_SCALE=1 "
    "or use scripts/full_scale_rank3.py",
)
def test_criterion_7_full_scale_rank3(tmp_path):
    """Paper-scale Scheme III: ECP 0.494 +- 0.06 and width 1.351 +- 0.20."""
    prefix = tmp_path / "full"
    code = main([
        "bench", "--scheme", "III", "--n", "200", "--test-size", "100",
        "--p", "5000", "--replicates", "100", "--ensemble-size", "50",
        "--variant", "ris_rp", "--seed", "1", "--threads", "2",
        "--out-prefix", str(prefix),
    ])
    assert code == 0
    summary = _read_summary(tmp_path / "full_metrics.csv")
    _, ecp, width = summary["mean"]
    assert abs(ecp - 0.494) <= 0.06
    assert abs(width - 1.351) <= 0.20
    report(7, f"full-scale ECP {ecp:.3f}, width {width:.3f}")


def test_criterion_8_classification_sanity():
    """Separable two-class data: 0% held-out misclassification and AUC 1."""
    started = time.perf_counter()
    rng = np.random.default_rng(8)
    n_train, n_test, p, informative = 200, 200, 1000, 20
    n = n_train + n_test
    y = (rng.random(n) < 0.5).astype(float)
    X = rng.standard_normal((n, p))
    X[:, :informative] += np.where(y[:, None] == 1.0, 2.0, -2.0)
    train = Dataset(X[:n_train], y[:n_train], response_kind="binary")
    configs = sample_config_grid(
        n_train, p, 25, variant="ris_rp", master_seed=88
    )
    model = fit_tarp(train, configs, threads=2)
    pred = predict_tarp(model, X[n_train:])
    result = evaluate_classification(pred.probability, y[n_train:])
    elapsed = time.perf_counter() - started
    assert result.misclassification_rate == 0.0
    assert result.auc == 1.0
    assert elapsed < 120.0
    report(8, f"misclassification 0%, AUC 1.0, {elapsed:.1f}s")


def test_criterion_9_determinism_across_thread_counts(tmp_path, monkeypatch):
    """Identical master seed: byte-identical model files and prediction CSVs,
    for a continuous and a binary response and for ris_rp and ris_pcr."""
    monkeypatch.chdir(tmp_path)
    code = main(["simulate", "--scheme", "I", "--n", "80", "--p", "120",
                 "--seed", "13", "--out", "data.csv"])
    assert code == 0
    data = load_csv(tmp_path / "data.csv", target="y")
    binary = (data.response > np.median(data.response)).astype(float)
    write_csv(Dataset(data.design, binary, response_kind="binary",
                      column_names=data.column_names), tmp_path / "binary.csv")
    cases = {
        "continuous": ("data.csv", []),
        "binary": ("binary.csv", []),
        "ris_pcr": ("data.csv", ["--variant", "ris_pcr"]),
    }
    for case, (csv_name, options) in cases.items():
        csv_path = str(tmp_path / csv_name)
        blobs = {}
        for threads in (1, 2, 8):
            # identical command lines except --threads: outputs go to sibling
            # directories so the recorded option sets match byte for byte
            subdir = tmp_path / case / f"t{threads}"
            subdir.mkdir(parents=True)
            monkeypatch.chdir(subdir)
            assert main(["fit", "--data", csv_path, *options, "--replicates", "8",
                         "--seed", "21", "--threads", str(threads),
                         "--out", "model.json"]) == 0
            assert main(["predict", "--model", "model.json", "--data", csv_path,
                         "--out", "pred.csv"]) == 0
            blobs[threads] = (
                (subdir / "model.json").read_bytes(),
                (subdir / "pred.csv").read_bytes(),
            )
        assert blobs[1][0].startswith(b"tarp-model 8 sha256="), case
        assert blobs[1] == blobs[2] == blobs[8], case
    report(9, "byte-identical v8 models and predictions at threads 1, 2, 8 "
              "(continuous, binary, ris_pcr)")
