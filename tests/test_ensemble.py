import gc
import math
import re
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import t as t_dist

import tarp.ensemble
from oracles import (
    binary_probability_per_replicate,
    central_interval,
    mixture_t_quantile_via_bisection,
)
from tarp.data import DataError, Dataset, StandardizationParams
from tarp.ensemble import (
    LEVEL_RANGE,
    ReplicateError,
    VARIANTS,
    TarpConfig,
    _map_ordered,
    check_level,
    fit_tarp,
    m_range,
    mixture_t_quantile,
    predict_tarp,
    sample_config_grid,
)
from tarp.model_io import save_model
from tarp.posterior import predictive
from tarp.projection import compress
from tarp.screening import default_delta
from tarp.simgen import SchemeSpec, generate


# the untargeted baseline: ris_rp at delta 0, which screens nothing
UNSCREENED = ("ris_rp", 0.0)


def toy_dataset(seed=0, n=60, p=25, informative=4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:informative] = 1.5
    y = X @ beta + rng.standard_normal(n)
    return Dataset(X, y)


class TestMapOrdered:
    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_results_in_job_order_despite_completion_order(self, threads):
        finished = []
        last_done = threading.Event()

        def job(j):
            if j == 0 and threads > 1:
                # job 0 finishes last: it waits for the final job
                assert last_done.wait(timeout=30)
            finished.append(j)
            if j == 5:
                last_done.set()
            return j * j

        assert _map_ordered(job, range(6), threads) == [j * j for j in range(6)]
        assert sorted(finished) == list(range(6))
        if threads > 1:
            assert finished[-1] == 0

    @pytest.mark.parametrize("threads", [1, 3])
    def test_failure_carries_job_index(self, threads):
        def job(j):
            if j == 2:
                raise ValueError("bad job")
            return j

        with pytest.raises(ReplicateError, match="replicate 2: bad job") as info:
            _map_ordered(job, range(5), threads)
        assert info.value.index == 2
        assert isinstance(info.value.original, ValueError)

    @pytest.mark.parametrize("call", [1, 3])
    def test_a_thread_that_cannot_start_names_the_pool(self, refuse_thread, call):
        # the system refuses the first thread, or the third after two others
        # are asked for: one OSError naming the pool's size, and no job
        # after the one whose thread was refused runs
        done = []
        refuse_thread(call)
        with pytest.raises(OSError, match=r"^cannot start 4 worker threads "
                                          r"\(can't start new thread\)$"):
            _map_ordered(done.append, range(6), 4)
        assert len(done) <= call


class TestConfigGrid:
    def test_documented_range(self):
        # ceil(2 ln 2000) = 16, floor(3*200/4) = 150
        assert m_range(200, 2000) == (16, 150)
        configs = sample_config_grid(200, 2000, 200, master_seed=1)
        ms = np.array([c.m for c in configs])
        assert ms.min() >= 16 and ms.max() <= 150

    def test_psi_range(self):
        configs = sample_config_grid(100, 500, 100, master_seed=2)
        psis = np.array([c.psi for c in configs])
        assert np.all((psis > 0.1) & (psis < 0.4))

    def test_deterministic(self):
        a = sample_config_grid(100, 400, 10, master_seed=3)
        b = sample_config_grid(100, 400, 10, master_seed=3)
        assert a == b
        c = sample_config_grid(100, 400, 10, master_seed=4)
        assert a != c

    def test_single_config(self):
        configs = sample_config_grid(50, 100, 1, master_seed=0)
        assert len(configs) == 1

    def test_clamps_for_tiny_n(self):
        # 2 ln p exceeds 3n/4: the range resets to start at 1
        lo, hi = m_range(6, 1000)
        assert (lo, hi) == (1, 4)

    def test_pcr_has_no_psi(self):
        configs = sample_config_grid(50, 100, 5, variant="ris_pcr", master_seed=0)
        assert all(c.psi is None for c in configs)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            sample_config_grid(50, 100, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TarpConfig(m=0, psi=0.2, variant="ris_rp", seed=1)
        with pytest.raises(ValueError):
            TarpConfig(m=3, psi=0.7, variant="ris_rp", seed=1)
        with pytest.raises(ValueError):
            TarpConfig(m=3, psi=0.2, variant="nope", seed=1)


class TestFitTarp:
    @pytest.mark.parametrize("delta", [-1.0, float("nan"), float("inf")])
    def test_delta_must_be_finite_and_nonnegative(self, monkeypatch, delta):
        monkeypatch.setattr(tarp.ensemble, "_map_ordered", None)
        ds = toy_dataset()
        configs = sample_config_grid(ds.n, ds.p, 2, master_seed=1)
        with pytest.raises(ValueError, match="delta must be finite and >= 0"):
            fit_tarp(ds, configs, delta=delta)

    def test_identical_seeds_identical_posteriors(self):
        ds = toy_dataset()
        cfg = TarpConfig(m=5, psi=0.2, variant="ris_rp", seed=99)
        model = fit_tarp(ds, [cfg, cfg, cfg], delta=1.0)
        locations = [rep.posterior.location for rep in model.replicates]
        for loc in locations[1:]:
            np.testing.assert_array_equal(loc, locations[0])

    def test_delta_zero_keeps_every_column(self):
        # the untargeted baseline: no screening, even where every correlation
        # is 0 (a constant response) and some columns are constant
        ds = toy_dataset()
        design = ds.design.copy()
        design[:, :3] = 2.0
        for train in (ds, Dataset(design, np.full(ds.n, 3.0))):
            cfg = TarpConfig(m=5, psi=0.2, variant="ris_rp", seed=3)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                model = fit_tarp(train, [cfg], delta=0.0)
            assert model.replicates[0].projection.p_gamma == ds.p

    @pytest.mark.parametrize("delta", [None, 0.0, 1.0])
    def test_screens_once(self, monkeypatch, delta):
        # one fit screens once, at one delta (unset: the default for the
        # training rows); every replicate draws the gamma that a fit of its
        # own draws
        ds = toy_dataset()
        configs = sample_config_grid(ds.n, ds.p, 6, master_seed=4)
        alone = [fit_tarp(ds, [cfg], delta=delta).replicates[0] for cfg in configs]
        deltas = []
        screen = tarp.ensemble.inclusion_probabilities

        def counted(r, delta, constant_mask=None):
            deltas.append(delta)
            return screen(r, delta, constant_mask)

        monkeypatch.setattr(tarp.ensemble, "inclusion_probabilities", counted)
        model = fit_tarp(ds, configs, delta=delta, threads=2)
        expected = default_delta(ds.n, ds.p) if delta is None else delta
        assert deltas == [expected] and model.delta == expected
        for rep, single in zip(model.replicates, alone):
            np.testing.assert_array_equal(rep.projection.gamma, single.projection.gamma)

    def test_thread_count_does_not_change_results(self):
        ds = toy_dataset()
        configs = sample_config_grid(ds.n, ds.p, 6, master_seed=6)
        m1 = fit_tarp(ds, configs, threads=1)
        m4 = fit_tarp(ds, configs, threads=4)
        for r1, r4 in zip(m1.replicates, m4.replicates):
            np.testing.assert_array_equal(
                r1.posterior.location, r4.posterior.location
            )

    def test_pool_capped_at_config_count(self, record_pool):
        sizes = record_pool(tarp.ensemble)
        ds = toy_dataset()
        configs = sample_config_grid(ds.n, ds.p, 3, master_seed=8)
        fit_tarp(ds, configs, threads=8)
        fit_tarp(ds, configs[:1], threads=8)  # one config runs inline
        assert sizes == [3]

    @pytest.mark.parametrize("prior", ["a_sigma", "b_sigma", "sigma_theta2"])
    @pytest.mark.parametrize("binary", [False, True])
    def test_every_prior_checked_for_both_kinds(self, prior, binary):
        ds = toy_dataset()
        if binary:
            ds = Dataset(ds.design, (ds.response > 0).astype(float),
                         response_kind="binary")
        configs = sample_config_grid(ds.n, ds.p, 2, master_seed=9)
        with pytest.raises(ValueError, match=f"{prior} must be a positive finite"):
            fit_tarp(ds, configs, **{prior: float("nan")})

    @pytest.mark.parametrize("prior", ["a_sigma", "b_sigma"])
    def test_prior_overflowing_predictive_fails_before_any_replicate(
        self, monkeypatch, prior
    ):
        def no_replicate(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(tarp.ensemble, "_fit_replicate", no_replicate)
        ds = toy_dataset()
        configs = sample_config_grid(ds.n, ds.p, 2, master_seed=9)
        with pytest.raises(ValueError, match="^priors a_sigma=") as info:
            fit_tarp(ds, configs, **{prior: 1e308})
        assert not isinstance(info.value, ReplicateError)

    def test_replicate_error_carries_index(self):
        ds = toy_dataset()
        good = sample_config_grid(ds.n, ds.p, 2, master_seed=7)
        bad = TarpConfig(m=5, psi=0.2, variant="ris_rp", seed=1)
        object.__setattr__(bad, "m", -3)  # corrupt after validation
        with pytest.raises(ReplicateError, match="replicate 2"):
            fit_tarp(ds, [*good, bad])

    @pytest.mark.parametrize("variant", ["ris_rp", "ris_pcr"])
    def test_design_layout_does_not_change_the_model(self, tmp_path, variant):
        ds = toy_dataset(n=80, p=300)
        configs = sample_config_grid(ds.n, ds.p, 4, variant=variant, master_seed=12)
        files = []
        for order in ("C", "F"):
            train = Dataset(np.asarray(ds.design, order=order), ds.response)
            files.append(tmp_path / f"{order}.json")
            save_model(fit_tarp(train, configs, master_seed=12), files[-1])
        assert files[0].read_bytes() == files[1].read_bytes()

    def test_screens_the_design_it_fits(self, monkeypatch):
        # screening reads the column-major standardized design that the
        # replicates are fitted on, not an n x p copy of it
        standardized, screened = [], []
        standardize = tarp.ensemble.standardize
        screen = tarp.ensemble.marginal_correlations

        def standardizing(train):
            std_train, params = standardize(train)
            standardized.append(std_train.design)
            return std_train, params

        def recording(X, *args, **kwargs):
            screened.append(X)
            return screen(X, *args, **kwargs)

        monkeypatch.setattr(tarp.ensemble, "standardize", standardizing)
        monkeypatch.setattr(tarp.ensemble, "marginal_correlations", recording)
        ds = toy_dataset()
        fit_tarp(ds, sample_config_grid(ds.n, ds.p, 2, master_seed=1))
        assert len(screened) == 1 and screened[0] is standardized[0]
        assert screened[0].flags.f_contiguous

    @pytest.mark.parametrize(
        "variant, delta", [("ris_rp", None), UNSCREENED, ("ris_pcr", None)],
        ids=["ris_rp", "plain_rp_baseline", "ris_pcr"],
    )
    def test_replicates_keep_at_most_two_bits_per_entry(self, variant, delta):
        ds = toy_dataset(seed=9, n=60, p=203)
        configs = sample_config_grid(ds.n, ds.p, 6, variant=variant)
        model = fit_tarp(ds, configs, delta=delta)
        for rep in model.replicates:
            R = rep.projection
            if variant == "ris_pcr":
                assert R.signs is None  # the dense block is the model
            else:
                assert R.signs.nbytes <= 2 * math.ceil(R.m * R.p_gamma / 8)

    def test_empty_config_list_rejected(self):
        with pytest.raises(ValueError):
            fit_tarp(toy_dataset(), [])

    def test_response_whose_sum_of_squares_overflows_rejected(self, monkeypatch):
        # |y| ~ 1e200 is finite, but y'y of the centred response is not;
        # no replicate may start, or every Gaussian fit gets a NaN noise scale
        ds = toy_dataset()
        huge = Dataset(ds.design, ds.response * 1e200)
        monkeypatch.setattr(tarp.ensemble, "_map_ordered", None)
        with pytest.raises(DataError, match="sum of squares of the centred response"):
            fit_tarp(huge, sample_config_grid(ds.n, ds.p, 2, master_seed=3))

    @pytest.mark.parametrize(
        "variant, delta", [("ris_rp", None), ("ris_pcr", None), UNSCREENED],
        ids=["ris_rp", "ris_pcr", "plain_rp_baseline"],
    )
    def test_design_without_a_varying_column_rejected_before_any_replicate(
        self, monkeypatch, variant, delta
    ):
        # 0.1 is not exact in binary: each column's scale is ~1e-17, not 0
        ds = toy_dataset()
        flat = Dataset(np.full_like(ds.design, 0.1), ds.response)
        monkeypatch.setattr(tarp.ensemble, "_map_ordered", None)
        with pytest.raises(DataError, match="^every design column is constant"):
            fit_tarp(flat, sample_config_grid(ds.n, ds.p, 2, variant=variant),
                     delta=delta)

    def test_runtime_roughly_linear_in_replicates(self):
        # fixed (n, p, m) per replicate: wall time should track the count,
        # within a factor of 2 of linear; batches are sized so each run is
        # hundreds of milliseconds, large enough to swamp timer/GC noise
        ds = toy_dataset(n=300, p=3000)
        small = [
            TarpConfig(m=200, psi=0.3, variant="ris_rp", seed=i)
            for i in range(6)
        ]
        large = small * 5

        def best_of(configs, tries=3):
            times = []
            for _ in range(tries):
                gc.collect()
                start = time.perf_counter()
                fit_tarp(ds, configs, delta=0.0)
                times.append(time.perf_counter() - start)
            return min(times)

        ratio = best_of(large) / best_of(small)
        assert 5 / 2 <= ratio <= 5 * 2


def fitted_model(binary=False):
    ds = toy_dataset()
    if binary:
        y = (ds.response > 0).astype(float)
        ds = Dataset(ds.design, y, response_kind="binary")
    return fit_tarp(ds, sample_config_grid(ds.n, ds.p, 2, master_seed=3))


class TestModelInvariants:
    # a fitted model's parts rebuilt with one invariant broken: a fit and a
    # model file build replicates and models through the same constructors
    @pytest.mark.parametrize(
        "binary, change, message",
        [
            (False, lambda rep: {"posterior": replace(
                rep.posterior, location=rep.posterior.location[:-1],
                precision_inverse=rep.posterior.precision_inverse[:-1, :-1])},
             "location has shape .*, projection m="),
            (True, lambda rep: {"posterior": replace(
                rep.posterior, mode=rep.posterior.mode[:-1])},
             "mode has shape .*, projection m="),
            (False, lambda rep: {"projection": replace(
                rep.projection, seed=(rep.projection.seed[0], 2))},
             r"projection seed \[\d+, 2\] is not \[s, 1\]"),
        ],
        ids=["location_m", "mode_m", "seed_stream"],
    )
    def test_replicate(self, binary, change, message):
        rep = fitted_model(binary).replicates[0]
        replace(rep)
        with pytest.raises(ValueError, match=message):
            replace(rep, **change(rep))

    @pytest.mark.parametrize(
        "binary, change, message",
        [
            (False, lambda model: {"replicates": []}, "model has no replicates"),
            (False, lambda model: {"response_kind": "bogus"}, "unknown response_kind"),
            (False, lambda model: {"response_kind": "binary"},
             "response_mean .* in a binary model"),
            (False, lambda model: {"standardization": replace(
                model.standardization, response_mean=None)},
             "response_mean None in a continuous model"),
            (False, lambda model: {"standardization": replace(
                model.standardization, response_mean=math.inf)},
             "response_mean inf in a continuous model"),
            (True, lambda model: {"replicates": fitted_model().replicates},
             "GaussianPosterior in a binary model"),
            (False, lambda model: {"column_names": model.column_names[:-1]},
             "24 column names for 25 columns"),
            (False, lambda model: {
                "column_names": model.column_names[:-1],
                "standardization": StandardizationParams(
                    model.standardization.column_means[:-1],
                    model.standardization.column_scales[:-1],
                    model.standardization.constant_mask[:-1],
                    model.standardization.response_mean,
                ),
            }, "gamma has length 25, expected 24"),
            (False, lambda model: {"column_names": ["x1", *model.column_names[:-1]]},
             "column names must be distinct"),
            (False, lambda model: {"delta": -0.5}, "delta must be finite and >= 0"),
            (False, lambda model: {"delta": math.inf}, "delta must be finite and >= 0"),
            (False, lambda model: {"a_sigma": 0.0}, "a_sigma must be a positive"),
            (False, lambda model: {"b_sigma": math.nan}, "b_sigma must be a positive"),
            (True, lambda model: {"sigma_theta2": -1.0},
             "sigma_theta2 must be a positive finite"),
            (True, lambda model: {"sigma_theta2": 0.0},
             "sigma_theta2 must be a positive finite"),
            (False, lambda model: {"n_obs": 0}, "n_obs 0 in a continuous model"),
            (False, lambda model: {"n_obs": None}, "n_obs None in a continuous model"),
            (True, lambda model: {"n_obs": 60}, "n_obs 60 in a binary model"),
            # finite priors whose predictive t overflows for some replicate
            (False, lambda model: {"a_sigma": 1e308}, "predictive df of inf"),
            (False, lambda model: {"b_sigma": 1e308}, "predictive noise scale of inf"),
        ],
        ids=["no_replicates", "kind_bogus", "binary_with_mean",
             "continuous_without_mean", "mean_inf", "posterior_kind", "column_names",
             "gamma_length", "column_names_repeated", "delta_negative", "delta_inf",
             "a_sigma", "b_sigma", "sigma_theta2", "sigma_theta2_zero",
             "n_obs_zero", "n_obs_missing", "binary_n_obs", "a_sigma_overflows",
             "b_sigma_overflows"],
    )
    def test_model(self, binary, change, message):
        model = fitted_model(binary)
        replace(model)
        with pytest.raises(ValueError, match=message):
            replace(model, **change(model))


class TestMixtureQuantile:
    def test_single_component_matches_t_quantile(self):
        q = mixture_t_quantile(7.0, np.array([[1.0, 2.0]]), np.array([[4.0, 9.0]]), 0.25)
        expected = np.array([1.0, 2.0]) + t_dist.ppf(0.25, 7.0) * np.array([2.0, 3.0])
        np.testing.assert_allclose(q, expected, atol=1e-8)

    def test_identical_components_collapse(self):
        locs = np.tile([[0.5, -1.0]], (4, 1))
        scales = np.tile([[1.0, 2.0]], (4, 1))
        q = mixture_t_quantile(10.0, locs, scales, 0.75)
        expected = mixture_t_quantile(10.0, locs[:1], scales[:1], 0.75)
        np.testing.assert_allclose(q, expected, atol=1e-10)

    def test_cdf_at_solution_hits_target(self):
        rng = np.random.default_rng(0)
        N, k = 6, 9
        df = rng.uniform(4, 40)
        locs = rng.standard_normal((N, k))
        scales = rng.uniform(0.5, 3.0, (N, k))
        for prob in (0.25, 0.5, 0.75):
            q = mixture_t_quantile(df, locs, scales, prob)
            cdf = t_dist.cdf((q[None, :] - locs) / np.sqrt(scales), df).mean(axis=0)
            np.testing.assert_allclose(cdf, prob, atol=1e-8)

    def test_bracketed_by_component_quantiles(self):
        rng = np.random.default_rng(1)
        df = rng.uniform(5, 30)
        locs = rng.standard_normal((5, 4))
        scales = rng.uniform(0.5, 2.0, (5, 4))
        q = mixture_t_quantile(df, locs, scales, 0.3)
        comp = locs + t_dist.ppf(0.3, df) * np.sqrt(scales)
        assert np.all(q >= comp.min(axis=0) - 1e-12)
        assert np.all(q <= comp.max(axis=0) + 1e-12)

    def test_mixture_cdf_monotone_in_prob(self):
        rng = np.random.default_rng(2)
        df = rng.uniform(5, 30)
        locs = rng.standard_normal((4, 3))
        scales = rng.uniform(0.5, 2.0, (4, 3))
        quantiles = [
            mixture_t_quantile(df, locs, scales, prob)
            for prob in (0.1, 0.25, 0.5, 0.75, 0.9)
        ]
        for lower, higher in zip(quantiles, quantiles[1:]):
            assert np.all(lower < higher)

    def test_invalid_prob(self):
        with pytest.raises(ValueError):
            mixture_t_quantile(1.0, np.zeros((1, 1)), np.ones((1, 1)), 0.0)


def mixture_cdf(df, locs, scales, q):
    return t_dist.cdf((q[None, :] - locs) / np.sqrt(scales), df).mean(axis=0)


def mixture_pdf(df, locs, scales, q):
    widths = np.sqrt(scales)
    density = t_dist.pdf((q[None, :] - locs) / widths, df) / widths
    return density.mean(axis=0)


class TestNewtonMatchesBisection:
    """The Newton solver against plain bisection, each within its CDF tol."""

    def check(self, df, locs, scales, prob):
        tol = tarp.ensemble.QUANTILE_TOL
        newton = mixture_t_quantile(df, locs, scales, prob)
        # the oracle takes a df per component
        dfs = np.full(len(locs), df)
        oracle = mixture_t_quantile_via_bisection(dfs, locs, scales, prob, tol=tol)
        for q in (newton, oracle):
            np.testing.assert_allclose(
                mixture_cdf(df, locs, scales, q), prob, rtol=0, atol=tol * (1 + 1e-6)
            )
        # two points whose CDFs both lie within tol of prob are 2 tol / pdf apart
        bound = 2 * tol / mixture_pdf(df, locs, scales, newton)
        assert np.all(np.abs(newton - oracle) <= 1.01 * bound)

    def test_serving_sized_mixture(self):
        rng = np.random.default_rng(3)
        N, k = 100, 1000
        df = rng.uniform(195.0, 205.0)
        locs = rng.normal(0.0, 3.0, k) + 0.5 * rng.standard_normal((N, k))
        scales = rng.uniform(0.5, 2.0, (N, k))
        for prob in (0.25, 0.75):
            self.check(df, locs, scales, prob)

    def test_all_cauchy(self):
        rng = np.random.default_rng(4)
        locs = rng.normal(0.0, 5.0, (20, 50))
        scales = rng.uniform(0.1, 3.0, (20, 50))
        for prob in (0.1, 0.5, 0.9):
            self.check(1.0, locs, scales, prob)

    @pytest.mark.parametrize("prob", [0.005, 0.995])
    def test_extreme_probabilities(self, prob):
        rng = np.random.default_rng(5)
        df = rng.uniform(3.0, 60.0)
        locs = rng.standard_normal((30, 200))
        scales = rng.uniform(0.2, 4.0, (30, 200))
        self.check(df, locs, scales, prob)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("prob", [0.005, 0.25, 0.75, 0.995])
    def test_bimodal_pdf_underflows_at_midpoint(self, prob):
        # near-normal components at -50 and +50: the mixture pdf is 0.0 in
        # floating point at the bracket midpoint, so Newton must bisect there
        shift = np.linspace(-1.0, 1.0, 5)
        locs = np.stack([shift - 50.0, shift + 50.0])
        scales = np.ones((2, 5))
        assert np.all(mixture_pdf(1e6, locs, scales, shift) == 0.0)
        self.check(1e6, locs, scales, prob)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("prob", [0.25, 0.75])
    def test_df_whose_gammaln_overflows(self, prob):
        # gammaln(df / 2) is inf past df ~5e305, so the density normaliser
        # is the Gaussian limit instead of inf - inf
        rng = np.random.default_rng(6)
        locs = rng.standard_normal((2, 40))
        scales = rng.uniform(0.5, 2.0, (2, 40))
        self.check(1e307, locs, scales, prob)

    @pytest.mark.parametrize("prob", [0.25, 0.75])
    def test_one_component_far_wider_than_the_rest(self, prob):
        # widths 1, 1, 1 and 1.5e153: Newton leaves the bracket, and
        # bisection needs ~510 halvings to close it
        locs = np.zeros((4, 1))
        scales = np.array([[1.0], [1.0], [1.0], [1.5e153**2]])
        q = mixture_t_quantile(200.0, locs, scales, prob)
        np.testing.assert_allclose(
            mixture_cdf(200.0, locs, scales, q), prob, rtol=0,
            atol=tarp.ensemble.QUANTILE_TOL,
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "locs, scales, prob",
        [
            ([8e307, 8e307, 8e307, 1.7e308], [1.0] * 4, 0.75),
            ([1.7e308, 1.7e308], [1.0, 1e300], 0.25),
            ([1.7e308, 1.7e308], [1.0, 1e300], 0.75),
        ],
        ids=["gap_below_max", "widths_1_and_1e150_lower", "widths_1_and_1e150_upper"],
    )
    def test_component_quantiles_near_dbl_max(self, locs, scales, prob):
        # the mean of the component quantiles overflows, and so would lo + hi:
        # the search starts at the bracket's midpoint and bisects with halved
        # bounds. The answer is finite, and the mixture CDF crosses prob
        # within the rounding width around it
        locs, scales = np.array(locs)[:, None], np.array(scales)[:, None]
        q = mixture_t_quantile(200.0, locs, scales, prob)
        assert np.isfinite(q).all()
        step = 1e-13 * (1.0 + np.abs(q))
        tol = tarp.ensemble.QUANTILE_TOL
        assert np.all(mixture_cdf(200.0, locs, scales, q - step) <= prob + tol)
        assert np.all(mixture_cdf(200.0, locs, scales, q + step) >= prob - tol)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bound", [1e308, 1.7e308])
    @pytest.mark.parametrize("prob, side", [(0.25, -1.0), (0.5, 0.0), (0.75, 1.0)])
    def test_bracket_wider_than_dbl_max(self, bound, prob, side):
        # x minus a component location of the other sign passes DBL_MAX; the
        # standardized distance is then infinite, with CDF 0 or 1 and density
        # 0. Each tail quantile is the median of its own component, up to the
        # search's rounding width, and the middle one the midpoint of the gap
        q = mixture_t_quantile(200.0, np.array([[-bound], [bound]]), np.ones((2, 1)), prob)
        np.testing.assert_allclose(q, [side * bound], rtol=1e-12, atol=0)

    def test_huge_finite_df_takes_few_cdf_evaluations(self, monkeypatch):
        # at df 1e15 the gammaln difference cancels to noise, which sent
        # Newton to bisection; the Gaussian-limit normaliser keeps it exact
        evaluations = []
        stdtr = tarp.ensemble.stdtr

        def counted(*args):
            evaluations.append(1)
            return stdtr(*args)

        rng = np.random.default_rng(7)
        locs = rng.standard_normal((20, 500))
        scales = rng.uniform(0.5, 2.0, (20, 500))
        monkeypatch.setattr(tarp.ensemble, "stdtr", counted)
        mixture_t_quantile(1e15, locs, scales, 0.25)
        assert len(evaluations) <= 10
        monkeypatch.undo()
        self.check(1e15, locs, scales, 0.25)


def binary_dataset(seed, n, p):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = (X[:, 0] + 0.5 * rng.standard_normal(n) > 0).astype(float)
    return Dataset(X, y, response_kind="binary")


def fit_logit_shaped(seed):
    """Training set and held-out rows of the benchmark's binary shape:
    scheme I, 200 + 100 rows, p = 2000, 100 ris_rp replicates."""
    data, _ = generate(SchemeSpec(scheme="I", n=300, p=2000, seed=seed))
    y = (data.response > np.median(data.response[:200])).astype(float)
    train = Dataset(data.design[:200], y[:200], response_kind="binary")
    configs = sample_config_grid(200, 2000, 100, master_seed=seed)
    return fit_tarp(train, configs, master_seed=seed), data.design[200:]


class TestBinaryPrediction:
    """One product X W' against compressing X once per replicate."""

    # 2 ulp at 1.0: the logits differ only by the order of their roundings
    TOL = 4.5e-16

    def test_fit_logit_shape_matches_per_replicate_oracle(self):
        model, X_new = fit_logit_shaped(seed=31)
        probs = predict_tarp(model, X_new).probability
        oracle = binary_probability_per_replicate(model, X_new)
        assert np.abs(probs - oracle).max() <= self.TOL

    @pytest.mark.parametrize("variant", ["ris_rp", "ris_pcr"])
    def test_random_models_match_per_replicate_oracle(self, variant):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n, p = int(rng.integers(20, 120)), int(rng.integers(5, 400))
            ds = binary_dataset(seed, n + 40, p)
            train = Dataset(ds.design[:n], ds.response[:n], response_kind="binary")
            configs = sample_config_grid(n, p, 10, variant=variant, master_seed=seed)
            model = fit_tarp(train, configs, master_seed=seed)
            probs = predict_tarp(model, ds.design[n:]).probability
            oracle = binary_probability_per_replicate(model, ds.design[n:])
            assert np.abs(probs - oracle).max() <= self.TOL

    def test_unscreened_models_match_to_logit_rounding(self):
        # delta 0 keeps every column: logits reach |h| ~ 200 and their
        # roundings differ by a few ulp of h, up to ~1.4e-15 here
        for seed in range(6):
            ds = binary_dataset(seed, 140, 300)
            train = Dataset(ds.design[:100], ds.response[:100], response_kind="binary")
            configs = sample_config_grid(100, 300, 10, variant="ris_rp", master_seed=seed)
            model = fit_tarp(train, configs, delta=0.0, master_seed=seed)
            probs = predict_tarp(model, ds.design[100:]).probability
            oracle = binary_probability_per_replicate(model, ds.design[100:])
            assert np.abs(probs - oracle).max() <= 8 * np.finfo(float).eps

    def test_predict_and_ris_pcr_fit_compress_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            tarp.ensemble, "compress", lambda X, R: calls.append(R) or compress(X, R)
        )
        ds = binary_dataset(5, 60, 40)
        rp = fit_tarp(ds, sample_config_grid(60, 40, 4, master_seed=5))
        assert len(calls) == 4  # the training rows of each ris_rp replicate
        predict_tarp(rp, ds.design[:7])
        configs = sample_config_grid(60, 40, 4, variant="ris_pcr", master_seed=5)
        predict_tarp(fit_tarp(ds, configs), ds.design[:7])
        assert len(calls) == 4


class TestPredictTarp:
    def test_single_replicate_equals_plain_interval(self):
        ds = toy_dataset()
        configs = sample_config_grid(ds.n, ds.p, 1, master_seed=11)
        model = fit_tarp(ds, configs)
        X_new = np.random.default_rng(12).standard_normal((15, ds.p))
        pred = predict_tarp(model, X_new, level=0.5)
        rep = model.replicates[0]
        Xs = model.standardization.transform_design(X_new)
        df, noise_scale2 = model.t_scale(rep.posterior)
        location, scale_diag = predictive(
            rep.posterior, compress(Xs, rep.projection), noise_scale2
        )
        lo, hi = central_interval(df, location, scale_diag, 0.5)
        shift = model.standardization.response_mean
        np.testing.assert_allclose(pred.lower, lo + shift, atol=1e-7)
        np.testing.assert_allclose(pred.upper, hi + shift, atol=1e-7)

    def test_point_prediction_permutation_invariant(self):
        ds = toy_dataset()
        configs = sample_config_grid(ds.n, ds.p, 5, master_seed=13)
        X_new = np.random.default_rng(14).standard_normal((8, ds.p))
        fwd = predict_tarp(fit_tarp(ds, configs), X_new)
        rev = predict_tarp(fit_tarp(ds, configs[::-1]), X_new)
        np.testing.assert_allclose(fwd.point, rev.point, atol=1e-12)

    def test_decentering_commutes_with_averaging(self):
        ds = toy_dataset()
        configs = sample_config_grid(ds.n, ds.p, 4, master_seed=15)
        model = fit_tarp(ds, configs)
        X_new = np.random.default_rng(16).standard_normal((6, ds.p))
        pred = predict_tarp(model, X_new)
        Xs = model.standardization.transform_design(X_new)
        centered = np.mean(
            [
                compress(Xs, rep.projection) @ rep.posterior.location
                for rep in model.replicates
            ],
            axis=0,
        )
        np.testing.assert_allclose(
            pred.point,
            model.standardization.inverse_response(centered),
            atol=1e-12,
        )

    def test_deterministic_end_to_end(self):
        ds = toy_dataset()
        X_new = np.random.default_rng(17).standard_normal((5, ds.p))

        def run():
            configs = sample_config_grid(ds.n, ds.p, 3, master_seed=18)
            model = fit_tarp(ds, configs, master_seed=18)
            return predict_tarp(model, X_new, level=0.5)

        a, b = run(), run()
        np.testing.assert_array_equal(a.point, b.point)
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.upper, b.upper)

    def test_binary_prediction_averages_probabilities(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((80, 10))
        y = (X[:, 0] + 0.5 * rng.standard_normal(80) > 0).astype(float)
        ds = Dataset(X, y, response_kind="binary")
        configs = sample_config_grid(ds.n, ds.p, 3, master_seed=20)
        model = fit_tarp(ds, configs)
        pred = predict_tarp(model, X[:10])
        assert pred.response_kind == "binary"
        assert np.all((pred.probability >= 0) & (pred.probability <= 1))
        assert pred.point is None

    @pytest.mark.parametrize("binary", [False, True], ids=["continuous", "binary"])
    @pytest.mark.parametrize(
        "rows, overwrite",
        [("column_major", False), ("row_major", False), ("row_major", True),
         ("read_only", True), ("float32", True), ("column_major", True)],
    )
    def test_rows_are_kept_unless_overwritten(self, binary, rows, overwrite):
        # overwrite_rows standardizes a writable float64 column-major X_new
        # in place; any other is copied and kept, and predicts the same bytes
        ds = toy_dataset()
        if binary:
            ds = Dataset(ds.design, (ds.response > 0).astype(float),
                         response_kind="binary")
        model = fit_tarp(ds, sample_config_grid(ds.n, ds.p, 3, master_seed=23))
        X = np.random.default_rng(24).standard_normal((9, ds.p))
        X = {
            "column_major": np.asfortranarray(X),
            "row_major": X,
            "read_only": np.asfortranarray(X),
            "float32": np.asfortranarray(X, dtype=np.float32),
        }[rows]
        X.flags.writeable = rows != "read_only"
        before = X.copy()
        expected = predict_tarp(model, before.copy())
        prediction = predict_tarp(model, X, overwrite_rows=overwrite)
        for name in ("point", "lower", "upper", "probability"):
            assert _bits(getattr(prediction, name)) == _bits(getattr(expected, name))
        if rows == "column_major" and overwrite:
            standardized = model.standardization.transform_design(before)
            assert X.tobytes() == standardized.tobytes()
        else:
            assert X.dtype == before.dtype and X.tobytes() == before.tobytes()

    def test_dimension_mismatch(self):
        ds = toy_dataset()
        model = fit_tarp(ds, sample_config_grid(ds.n, ds.p, 2, master_seed=21))
        with pytest.raises(ValueError):
            predict_tarp(model, np.zeros((3, ds.p + 1)))

    @pytest.mark.parametrize("binary", [False, True])
    def test_failing_replicate_is_named(self, monkeypatch, binary):
        ds = toy_dataset()
        if binary:
            ds = Dataset(ds.design, (ds.response > 0).astype(float),
                         response_kind="binary")
        model = fit_tarp(ds, sample_config_grid(ds.n, ds.p, 3, master_seed=22))
        name = "_mapped_back_mode" if binary else "predictive"
        original = getattr(tarp.ensemble, name)
        calls = []

        def fail_third(*args):
            calls.append(1)
            if len(calls) == 3:
                raise ValueError("bad replicate")
            return original(*args)

        monkeypatch.setattr(tarp.ensemble, name, fail_third)
        with pytest.raises(ReplicateError, match="replicate 2: bad replicate"):
            predict_tarp(model, ds.design[:4])

    def test_level_range_states_the_largest_level(self):
        largest = float(LEVEL_RANGE.rstrip("]").split(", ")[1])
        assert check_level(largest) == largest
        assert 0.5 * (1.0 + largest) < 1.0
        beyond = math.nextafter(largest, 1.0)
        assert 0.5 * (1.0 + beyond) == 1.0
        with pytest.raises(ValueError, match=f"must be {re.escape(LEVEL_RANGE)}"):
            check_level(beyond)


def _bits(arr):
    return None if arr is None else (arr.shape, arr.tobytes())


# binary probabilities come from one product X W' over every column: one
# more column, though never selected, may round them differently, by 2 ulp
# at 1.0 at most (2.2e-16 in 3,500 draws of the property below)
APPENDED_COLUMN_TOL = 4.5e-16


# the largest gap, relative to max(1, |value|), that each relation of the
# second property below may leave in any output: about 2.5x the largest of
# six 1,000-example runs of it (8.0e-14, 8.7e-14, 2.3e-15 and 2.4e-14)
METAMORPHIC_TOL = {
    "scale": 2e-13,
    "shift": 2e-13,
    "twice": 1e-14,
    "response_shift": 1e-13,
}


class TestMetamorphicRelations:
    # fits of related designs that must agree, with the configs and delta
    # held fixed on both sides (through the CLI, the default delta and m
    # range move with p). Standardization removes a column's scale exactly
    # when it is a power of two. A constant column gets q = 0 at delta > 0,
    # and the inclusion draw rng.random(p + 1) keeps the first p values of
    # rng.random(p), so gamma's first p bits and every block are unchanged;
    # at delta 0 that column is drawn in, and the relation fails. numpy sums
    # a lone column pairwise and each column of a wider design row by row,
    # so the constant column is appended only where p > 1
    @pytest.mark.filterwarnings("ignore:response is constant")
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_constant_column_and_power_of_two_scales(self, data):
        n = data.draw(st.integers(4, 30), label="n")
        p = data.draw(st.integers(1, 40), label="p")
        count = data.draw(st.integers(1, 4), label="count")
        variant = data.draw(st.sampled_from(VARIANTS), label="variant")
        binary = data.draw(st.booleans(), label="binary")
        cells = data.draw(st.sampled_from(["normal", "integers"]), label="cells")
        delta = data.draw(st.sampled_from([0.1, 0.7, 3.0]), label="delta")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        # five new rows follow the n training rows; small integers give
        # constant and duplicated columns
        X = (rng.standard_normal((n + 5, p)) if cells == "normal"
             else rng.integers(-1, 2, (n + 5, p)).astype(float))
        y = rng.integers(0, 2, n).astype(float) if binary else rng.standard_normal(n)
        kind = "binary" if binary else "continuous"
        configs = sample_config_grid(n, p, count, variant=variant, master_seed=seed)
        designs = [X, X * np.exp2(rng.integers(-20, 21, p))]
        if p > 1:
            designs.append(np.column_stack([X, np.full(n + 5, rng.standard_normal())]))
        outcomes = []
        for design in designs:
            try:
                model = fit_tarp(Dataset(design[:n], y, response_kind=kind), configs,
                                 delta=delta)
            except (DataError, ReplicateError) as exc:
                # a fit that fails must fail alike on each design
                outcomes.append((type(exc), str(exc)))
                continue
            outcomes.append((model, predict_tarp(model, design[n:], level=0.8)))
        (model, prediction), *related = outcomes
        if isinstance(model, type):
            assert related == [(model, prediction)] * len(related)
            return
        for (other_model, other_prediction), exact in zip(related, (True, not binary)):
            for rep, other in zip(model.replicates, other_model.replicates,
                                  strict=True):
                assert _bits(other.projection.gamma[:p]) == _bits(rep.projection.gamma)
                assert not other.projection.gamma[p:].any()
                assert _bits(other.projection._block()) == _bits(rep.projection._block())
            for name in ("point", "lower", "upper", "probability"):
                ours, theirs = getattr(prediction, name), getattr(other_prediction, name)
                if exact or ours is None:
                    assert _bits(theirs) == _bits(ours)
                else:
                    assert np.abs(theirs - ours).max() <= APPENDED_COLUMN_TOL

    # a positive factor per column, a shift per column, the config list
    # given twice and a continuous response plus b change no column that
    # screening picks and no map. Standardization removes the first two,
    # and the fourth, up to rounding; a component given twice leaves an
    # equal-weight mixture as it was, up to the order of its sums. The
    # outputs move by b in the fourth relation and by nothing in the rest
    @pytest.mark.filterwarnings("ignore:response is constant")
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_column_scales_and_shifts_configs_twice_and_response_shift(self, data):
        n = data.draw(st.integers(4, 30), label="n")
        p = data.draw(st.integers(1, 40), label="p")
        count = data.draw(st.integers(1, 4), label="count")
        variant = data.draw(st.sampled_from(VARIANTS), label="variant")
        binary = data.draw(st.booleans(), label="binary")
        cells = data.draw(st.sampled_from(["normal", "integers"]), label="cells")
        delta = data.draw(st.sampled_from([0.0, 0.7, 3.0]), label="delta")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        X = (rng.standard_normal((n + 5, p)) if cells == "normal"
             else rng.integers(-1, 2, (n + 5, p)).astype(float))
        y = rng.integers(0, 2, n).astype(float) if binary else rng.standard_normal(n)
        kind = "binary" if binary else "continuous"
        configs = sample_config_grid(n, p, count, variant=variant, master_seed=seed)
        b = 10.0 * rng.standard_normal()
        # a column constant in the training rows is centred only, so a new
        # row's value there keeps that column's units; delta 0 screens it in
        factors = np.where(np.ptp(X[:n], axis=0) > 0,
                           np.exp(3.0 * rng.standard_normal(p)), 1.0)
        # each relation's design, response and configs, and how far its
        # outputs move
        relations = {
            "scale": (X * factors, y, configs, 0.0),
            "shift": (X + 10.0 * rng.standard_normal(p), y, configs, 0.0),
            "twice": (X, y, configs + configs, 0.0),
        }
        if not binary:
            relations["response_shift"] = (X, y + b, configs, b)

        def fit_predict(design, response, configs):
            try:
                model = fit_tarp(Dataset(design[:n], response, response_kind=kind),
                                 configs, delta=delta)
            except (DataError, ReplicateError) as exc:
                return type(exc), str(exc)
            return model, predict_tarp(model, design[n:], level=0.8)

        model, prediction = fit_predict(X, y, configs)
        for relation, (design, response, related_configs, moved) in relations.items():
            other_model, other_prediction = fit_predict(design, response, related_configs)
            if isinstance(model, type):
                # a fit that fails must fail alike on the related inputs
                assert (other_model, other_prediction) == (model, prediction), relation
                continue
            replicates = model.replicates * (len(related_configs) // count)
            for rep, other in zip(replicates, other_model.replicates, strict=True):
                assert _bits(other.projection.gamma) == _bits(rep.projection.gamma)
                assert other.projection.m == rep.projection.m
            for name in ("point", "lower", "upper", "probability"):
                ours, theirs = getattr(prediction, name), getattr(other_prediction, name)
                if ours is None:
                    continue
                ours = ours + moved
                gap = (np.abs(theirs - ours) / np.maximum(1.0, np.abs(ours))).max()
                assert gap <= METAMORPHIC_TOL[relation], (relation, name, gap)
