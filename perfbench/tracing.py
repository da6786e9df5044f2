"""Per-layer spans recorded from outside the program.

The tracer replaces public functions at the module attribute where the
pipeline looks them up (``tarp.ensemble.compress``, ``tarp.cli.load_table``,
...) with wrappers that record a span per call. Nothing under ``src`` is
edited. Spans stay in memory and are written once, when the run ends.

An entry point that no longer exists is reported as absent with zero calls,
and one that is no longer called simply reports zero calls, so a refactor of
the program never crashes the traced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Optional

SETUP_OP = "setup"


def _p_gamma(args, kwargs, result):
    return {"p_gamma": result.count}


def _m_eff(args, kwargs, result):
    return {"m_eff": result.m, "m_requested": result.requested_m}


def _compress_flop(args, kwargs, result):
    # computed, not measured: 2 flop per nonzero of R per compressed row
    X, R = args[0], args[1]
    if R.sparse is not None:
        nnz = R.sparse.nnz
    else:
        nnz = R.dense_block.size
    return {"flop": 2.0 * X.shape[0] * nnz}


def _newton_iters(args, kwargs, result):
    return {"newton_iters": result.n_iter}


def _input_bytes(args, kwargs, result):
    return {"input_bytes": os.path.getsize(args[0])}


@dataclass(frozen=True)
class Layer:
    """One traced function: its metric stem and where the pipeline finds it."""

    stem: str
    sites: tuple[tuple[str, str], ...]
    counter: Optional[Callable] = None
    # functions with traced children report self time under ``<stem>_self_s``
    has_children: bool = False
    per_call: bool = False  # set-up work: seconds per call, not per op

    @property
    def seconds_metric(self) -> str:
        return f"{self.stem}_self_s" if self.has_children else f"{self.stem}_s"


LAYERS = (
    Layer("cli.main", (("tarp.cli", "main"),), has_children=True),
    Layer("data.load_table", (("tarp.cli", "load_table"),), counter=_input_bytes),
    Layer("data.write_csv", (("tarp.data", "write_csv"),), per_call=True),
    Layer("data.standardize", (("tarp.ensemble", "standardize"),)),
    Layer("screening.marginal_correlations", (("tarp.ensemble", "marginal_correlations"),)),
    Layer("screening.sample_inclusion", (("tarp.ensemble", "sample_inclusion"),),
          counter=_p_gamma),
    Layer("projection.sample_ris_rp",
          (("tarp.ensemble", "sample_ris_rp"), ("tarp.model_io", "sample_ris_rp"))),
    Layer("projection.compute_ris_pcr", (("tarp.ensemble", "compute_ris_pcr"),),
          counter=_m_eff),
    Layer("projection.compress", (("tarp.ensemble", "compress"),), counter=_compress_flop),
    Layer("posterior.fit_gaussian", (("tarp.ensemble", "fit_gaussian"),)),
    Layer("posterior.fit_bernoulli_laplace", (("tarp.ensemble", "fit_bernoulli_laplace"),),
          counter=_newton_iters),
    Layer("posterior.predictive", (("tarp.ensemble", "predictive"),)),
    Layer("posterior.point_predict", (("tarp.ensemble", "point_predict"),)),
    Layer("posterior.predict_prob", (("tarp.ensemble", "predict_prob"),)),
    Layer("ensemble.fit_tarp", (("tarp.ensemble", "fit_tarp"),), has_children=True),
    Layer("ensemble.predict_tarp",
          (("tarp.ensemble", "predict_tarp"), ("tarp.cli", "predict_tarp")),
          has_children=True),
    Layer("ensemble.mixture_t_quantile", (("tarp.ensemble", "mixture_t_quantile"),)),
    Layer("model_io.load_model", (("tarp.cli", "load_model"),), has_children=True),
    Layer("model_io.save_model", (("tarp.model_io", "save_model"),), per_call=True),
)


class Tracer:
    """Records spans ``[name, start, end, parent, op, counts]`` in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.counter_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._op = SETUP_OP
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every entry point that exists; note the ones that do not."""
        self.absent = []
        for layer in LAYERS:
            for module_name, attr in layer.sites:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                self._installed.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    def _wrap(self, layer: Layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            record = [layer.stem, time.perf_counter(), None, parent, self._op, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if layer.counter is not None:
                try:
                    record[5] = layer.counter(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, OSError) as exc:
                    self.counter_errors[layer.stem] = repr(exc)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str, op):
        """A root span, such as one whole op; layer spans under it carry ``op``."""
        record = [name, time.perf_counter(), None, None, op, None]
        self._op = op
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self._op = SETUP_OP

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent,
                       "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans: list[list], root: str, n_ops: int) -> dict[str, float]:
    """Per-op self seconds and calls of every layer, plus the derived counts.

    Spans under a root named ``root`` (one per traced op) are per-op work;
    the root's own self time is ``unattributed_s``. Layers marked
    ``per_call`` report mean seconds per call over the whole run instead.
    """
    selfs = self_times(spans)
    stems = [layer.stem for layer in LAYERS]
    op_self = dict.fromkeys(stems, 0.0)
    op_calls = dict.fromkeys(stems, 0)
    run_self = dict.fromkeys(stems, 0.0)
    run_calls = dict.fromkeys(stems, 0)
    counts: dict[str, float] = {}
    unattributed = 0.0
    for span, own in zip(spans, selfs):
        name, op = span[0], span[4]
        if name == root:
            unattributed += own
            continue
        if name not in op_self:
            continue
        run_self[name] += own
        run_calls[name] += 1
        if op == SETUP_OP:
            continue
        op_self[name] += own
        op_calls[name] += 1
        for key, value in (span[5] or {}).items():
            counts[key] = counts.get(key, 0.0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for layer in LAYERS:
        if layer.per_call:
            out[layer.seconds_metric] = ratio(run_self[layer.stem], run_calls[layer.stem])
            out[f"{layer.stem}_calls"] = float(run_calls[layer.stem])
        else:
            out[layer.seconds_metric] = ratio(op_self[layer.stem], n_ops)
            out[f"{layer.stem}_calls"] = ratio(op_calls[layer.stem], n_ops)
    out["unattributed_s"] = ratio(unattributed, n_ops)
    out["data.input_mb"] = ratio(counts.get("input_bytes", 0.0), n_ops) / 1e6
    out["screening.p_gamma_mean"] = ratio(
        counts.get("p_gamma", 0.0), op_calls["screening.sample_inclusion"])
    out["projection.m_eff_ratio"] = ratio(
        counts.get("m_eff", 0.0), counts.get("m_requested", 0.0))
    out["projection.compress_gflop"] = ratio(counts.get("flop", 0.0), n_ops) / 1e9
    out["posterior.newton_iters_mean"] = ratio(
        counts.get("newton_iters", 0.0), op_calls["posterior.fit_bernoulli_laplace"])
    return out


def per_op_seconds(metrics: dict[str, float]) -> float:
    """Sum of the per-op self times and the residual; equals traced op time."""
    total = metrics["unattributed_s"]
    for layer in LAYERS:
        if not layer.per_call:
            total += metrics[layer.seconds_metric]
    return total
