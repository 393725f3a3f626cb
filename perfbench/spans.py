"""Spans around the calls into each daepos layer, for the traced run.

``Tracer.install`` replaces the public names each caller looks up (for
example ``daepos.dae.localize``, which ``build_dae_dataset`` calls, and
``ErrorRegressor.predict``) with wrappers that record a span per call, and
``Tracer.restore`` puts the originals back.  A span is
``[name, start, end, parent index, facts]``; all spans stay in memory until
the run ends, and ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import resource
import time
from contextlib import contextmanager

from metrics import FAMILIES, LINEUP_LABELS, PER_LAYER, STAGES

NAME, START, END, PARENT, FACTS = range(5)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _parsed(args, kwargs, result):
    return {"rows": len(result), "signatures": result}


def _registry(args, kwargs, result):
    return {"registry": result}


def _radio_map_registry(args, kwargs, result):
    registry = kwargs.get("registry", args[1] if len(args) > 1 else None)
    return {"registry": registry}


def _dataset(args, kwargs, result):
    return {"dataset": result}


def _written_bytes(args, kwargs, result):
    dest = args[1] if len(args) > 1 else kwargs["dest"]
    return {"bytes": os.path.getsize(dest) if isinstance(dest, (str, os.PathLike)) else 0}


def _model_file_bytes(args, kwargs, result):
    source = args[0] if args else kwargs["source"]
    return {"bytes": os.path.getsize(source) if isinstance(source, (str, os.PathLike)) else 0}


def _fitted(args, kwargs, result):
    if result.family == "forest":
        return {"nodes": sum(tree.n_nodes for tree in result.trees)}
    return None


def _predict_rows(args, kwargs, result):
    features = args[1] if len(args) > 1 else kwargs["features"]
    ndim = getattr(features, "ndim", None)
    return {"rows": len(features) if ndim == 2 else 1}


def _label(args, kwargs, result):
    return {"label": result.label}


class Tracer:
    """Records spans while installed; every wrapper shares one span stack."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        spans = self.spans
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(spans))
        spans.append(record)
        record[START] = time.perf_counter()
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, facts=None, rss=False):
        """``fn`` wrapped in a span; ``name`` is a string or ``name(args, kwargs)``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            rss_before = _maxrss_kb() if rss else 0
            with tracer.span(span_name) as record:
                result = fn(*args, **kwargs)
            if facts is not None or rss:
                found = facts(args, kwargs, result) if facts is not None else None
                found = dict(found or {})
                if rss:
                    found["rss_raise_kb"] = _maxrss_kb() - rss_before
                record[FACTS] = found
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        if attr not in vars(owner):
            raise RuntimeError(f"cannot trace {getattr(owner, '__name__', owner)}.{attr}: no such name")
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the daepos names each layer's callers look up."""
        import daepos.cli
        import daepos.dae
        import daepos.evaluation
        import daepos.pipeline
        import daepos.positioning
        import daepos.regressors
        import daepos.regressors.network
        from daepos.dae import DaeDataset
        from daepos.positioning import RadioMap
        from daepos.regressors.base import ErrorRegressor

        if self._saved:
            raise RuntimeError("tracer is already installed")
        pipeline, cli, dae = daepos.pipeline, daepos.cli, daepos.dae

        original_stage = pipeline._stage
        tracer = self

        @contextmanager
        def traced_stage(name):
            with tracer.span(f"pipeline.stage.{name}"), original_stage(name):
                yield

        # run_pipeline opens each of its stages through this private helper;
        # it is the only boundary the stage breakdown can be read from.
        self._patch(pipeline, "_stage", traced_stage)

        wrap = self.wrap
        for module in (pipeline, cli):
            self._patch(module, "parse_signatures",
                        wrap(module.parse_signatures, "signatures.parse_signatures", _parsed))
        self._patch(pipeline, "build_registry",
                    wrap(pipeline.build_registry, "signatures.build_registry", _registry))
        for module in (dae, daepos.positioning):
            self._patch(module, "feature_matrix", wrap(module.feature_matrix, "signatures.feature_matrix"))
        for module in (dae, cli):
            self._patch(module, "localize", wrap(module.localize, "positioning.localize"))
        self._patch(RadioMap, "__init__",
                    wrap(RadioMap.__init__, "positioning.radio_map", _radio_map_registry))

        self._patch(pipeline, "build_dae_dataset",
                    wrap(pipeline.build_dae_dataset, "dae.build_dae_dataset", _dataset, rss=True))
        self._patch(pipeline, "build_holdout_dataset",
                    wrap(pipeline.build_holdout_dataset, "dae.build_holdout_dataset"))
        self._patch(pipeline, "write_dae_dataset",
                    wrap(pipeline.write_dae_dataset, "dae.write_dae_dataset", _written_bytes))
        self._patch(DaeDataset, "features", wrap(DaeDataset.features, "dae.DaeDataset.features"))

        def fit_name(args, kwargs):
            spec = args[0] if args else kwargs["spec"]
            return f"regressors.fit.{spec.family}"

        for module in (daepos.evaluation, daepos.regressors):
            self._patch(module, "fit_arrays", wrap(module.fit_arrays, fit_name, _fitted))
        network = daepos.regressors.network
        self._patch(network, "adam_step", wrap(network.adam_step, "regressors.network.adam_step"))
        self._patch(network, "training_loss_and_grads",
                    wrap(network.training_loss_and_grads, "regressors.network.training_loss_and_grads"))

        def predict_name(args, kwargs):
            return f"regressors.predict.{args[0].family}"

        self._patch(ErrorRegressor, "predict", wrap(ErrorRegressor.predict, predict_name, _predict_rows, rss=True))
        self._patch(cli, "load_model", wrap(cli.load_model, "regressors.store.load_model", _model_file_bytes))

        self._patch(pipeline, "evaluate_model",
                    wrap(pipeline.evaluate_model, "evaluation.evaluate_model", _label))
        for writer in ("write_pairs_csv", "write_ecdf_csv", "write_summary_csv"):
            self._patch(pipeline, writer, wrap(getattr(pipeline, writer), "evaluation.write", _written_bytes))

    def restore(self) -> None:
        """Put back every original, last patched first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_metrics(spans, wall_s: float, untraced_wall_s: float, line_times=()) -> dict:
    """Per-layer metrics of one traced run.

    ``line_times`` are the output-line timestamps of a traced ``predict``
    call, from which the CLI loop's own time per scan is derived.
    """
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_s = [0.0] * len(spans)
    fit_predict_child_s = [0.0] * len(spans)
    facts_of: dict[str, list] = {}
    for span in spans:
        duration = span[END] - span[START]
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + duration
        calls[span[NAME]] = calls.get(span[NAME], 0) + 1
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += duration
            if span[NAME].startswith(("regressors.fit.", "regressors.predict.")):
                fit_predict_child_s[span[PARENT]] += duration
        if span[FACTS]:
            facts_of.setdefault(span[NAME], []).append(span[FACTS])

    def fact_sum(name, key):
        return sum(f.get(key, 0) for f in facts_of.get(name, ()))

    def self_s(name, children):
        return sum(span[END] - span[START] - children[i] for i, span in enumerate(spans) if span[NAME] == name)

    m: dict[str, float] = {}
    m["signatures.parse_signatures.s"] = totals.get("signatures.parse_signatures", 0.0)
    m["signatures.parse_signatures.rows"] = fact_sum("signatures.parse_signatures", "rows")
    m["signatures.build_registry.s"] = totals.get("signatures.build_registry", 0.0)
    m["signatures.readings_kept_frac"] = _readings_kept_frac(spans)
    m["signatures.feature_matrix.calls"] = calls.get("signatures.feature_matrix", 0)
    m["signatures.feature_matrix.s"] = totals.get("signatures.feature_matrix", 0.0)

    localize_calls = calls.get("positioning.localize", 0)
    m["positioning.localize.calls"] = localize_calls
    m["positioning.localize.s"] = totals.get("positioning.localize", 0.0)
    m["positioning.localize.us_per_call"] = _per(m["positioning.localize.s"] * 1e6, localize_calls)
    m["positioning.radio_map.calls"] = calls.get("positioning.radio_map", 0)

    m["dae.build_dae_dataset.calls"] = calls.get("dae.build_dae_dataset", 0)
    m["dae.build_dae_dataset.s"] = totals.get("dae.build_dae_dataset", 0.0)
    m["dae.build_dae_dataset.self_s"] = self_s("dae.build_dae_dataset", child_s)
    m["dae.build_dae_dataset.rss_growth_mb"] = fact_sum("dae.build_dae_dataset", "rss_raise_kb") / 1024
    m["dae.build_holdout_dataset.s"] = totals.get("dae.build_holdout_dataset", 0.0)
    m["dae.write_dae_dataset.s"] = totals.get("dae.write_dae_dataset", 0.0)
    m["dae.write_dae_dataset.bytes"] = fact_sum("dae.write_dae_dataset", "bytes")
    m["dae.DaeDataset.features.calls"] = calls.get("dae.DaeDataset.features", 0)
    m["dae.DaeDataset.features.s"] = totals.get("dae.DaeDataset.features", 0.0)
    datasets = [f["dataset"] for f in facts_of.get("dae.build_dae_dataset", ())]
    m["dae.label_mean_m"] = float(datasets[0].labels().mean()) if datasets else 0.0

    for family in FAMILIES:
        m[f"regressors.fit.{family}.calls"] = calls.get(f"regressors.fit.{family}", 0)
        m[f"regressors.fit.{family}.s"] = totals.get(f"regressors.fit.{family}", 0.0)
    nodes = fact_sum("regressors.fit.forest", "nodes")
    m["regressors.forest.nodes"] = nodes
    m["regressors.forest.us_per_node"] = _per(m["regressors.fit.forest.s"] * 1e6, nodes)
    m["regressors.network.adam_step.calls"] = calls.get("regressors.network.adam_step", 0)
    m["regressors.network.adam_step.s"] = totals.get("regressors.network.adam_step", 0.0)
    m["regressors.network.training_loss_and_grads.s"] = totals.get("regressors.network.training_loss_and_grads", 0.0)

    for family in FAMILIES:
        name = f"regressors.predict.{family}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.rows"] = fact_sum(name, "rows")
        m[f"{name}.s"] = totals.get(name, 0.0)
    m["regressors.predict.forest.us_per_call"] = _per(
        m["regressors.predict.forest.s"] * 1e6, m["regressors.predict.forest.calls"]
    )
    m["regressors.predict.knn.rss_growth_mb"] = fact_sum("regressors.predict.knn", "rss_raise_kb") / 1024
    m["regressors.store.load_model.s"] = totals.get("regressors.store.load_model", 0.0)
    m["regressors.store.model_bytes"] = fact_sum("regressors.store.load_model", "bytes")

    per_label = {label: 0.0 for label in LINEUP_LABELS}
    for span in spans:
        if span[NAME] == "evaluation.evaluate_model":
            label = span[FACTS]["label"]
            if label not in per_label:
                raise RuntimeError(f"evaluate_model label {label!r} has no per-layer metric")
            per_label[label] += span[END] - span[START]
    for label, seconds in per_label.items():
        m[f"evaluation.evaluate_model.{label}.s"] = seconds
    m["evaluation.evaluate_model.self_s"] = self_s("evaluation.evaluate_model", fit_predict_child_s)
    m["evaluation.write.s"] = totals.get("evaluation.write", 0.0)
    m["evaluation.write.bytes"] = fact_sum("evaluation.write", "bytes")

    for stage in STAGES:
        m[f"pipeline.stage.{stage}.s"] = totals.get(f"pipeline.stage.{stage}", 0.0)

    m["cli.predict.self_us_per_scan"] = _cli_self_us_per_scan(spans, line_times)
    m["trace.overhead_frac"] = (wall_s - untraced_wall_s) / untraced_wall_s

    expected = [name for name, _, _ in PER_LAYER]
    if sorted(m) != sorted(expected):
        raise RuntimeError(f"per-layer metrics differ from the declared list: {sorted(set(m) ^ set(expected))}")
    return {name: float(m[name]) for name in expected}


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def _readings_kept_frac(spans) -> float:
    registry = None
    parsed = []
    for span in spans:
        facts = span[FACTS] or {}
        if registry is None and facts.get("registry") is not None:
            registry = facts["registry"]
        if span[NAME] == "signatures.parse_signatures":
            parsed.append(span)
    if registry is None:
        return 0.0
    kept = total = 0
    for span in parsed:
        for sig in span[FACTS].get("signatures", ()):
            total += len(sig.readings)
            kept += sum(1 for ap in sig.readings if registry.index_of(ap) is not None)
    return kept / total if total else 0.0


def _cli_self_us_per_scan(spans, line_times) -> float:
    """Time per scan of the predict loop outside ``localize`` and ``predict``.

    Scans after the first are measured between consecutive output lines, so
    the first scan, which is part of set-up, is left out.
    """
    if len(line_times) < 2:
        return 0.0
    first, last = line_times[0], line_times[-1]
    inner = sum(
        span[END] - span[START]
        for span in spans
        if (span[NAME] == "positioning.localize" or span[NAME].startswith("regressors.predict."))
        and span[START] > first and span[END] <= last
    )
    return (last - first - inner) / (len(line_times) - 1) * 1e6
