"""Metric tables and the statistics the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` are the metric lists of ``BENCHMARK.json``
(a test keeps the two in step).  An untraced run emits every end-to-end
metric, a traced run every per-layer metric; a layer a workload does not
exercise reports 0.
"""

from __future__ import annotations

import math

# (name, unit, better, bound).  A bound is the share of the parent's median
# by which a metric may get worse.  The timing bounds are wide because the
# two-core host this was tuned on swings by a factor of two in interpreter
# throughput over seconds (NOTES.md); err_mae_m is deterministic per seed but
# differs between seeds by about a tenth.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("err_mae_m", "m", "lower", 0.25),
)

FAMILIES = ("linear", "knn", "forest", "network")
LINEUP_LABELS = ("LR", "LR-xy", "RF", "RF-xy", "kNN", "kNN-xy", "NN", "NN-xy", "user")
STAGES = ("ingest", "registry", "folds", "dae-dataset", "evaluate", "holdout", "report")


def _per_layer() -> tuple:
    rows = [
        ("signatures.parse_signatures.s", "s"),
        ("signatures.parse_signatures.rows", "count"),
        ("signatures.build_registry.s", "s"),
        ("signatures.readings_kept_frac", "1"),
        ("signatures.feature_matrix.calls", "count"),
        ("signatures.feature_matrix.s", "s"),
        ("positioning.localize.calls", "count"),
        ("positioning.localize.s", "s"),
        ("positioning.localize.us_per_call", "us"),
        ("positioning.radio_map.calls", "count"),
        ("dae.build_dae_dataset.calls", "count"),
        ("dae.build_dae_dataset.s", "s"),
        ("dae.build_dae_dataset.self_s", "s"),
        ("dae.build_dae_dataset.rss_growth_mb", "MB"),
        ("dae.build_holdout_dataset.s", "s"),
        ("dae.write_dae_dataset.s", "s"),
        ("dae.write_dae_dataset.bytes", "bytes"),
        ("dae.DaeDataset.features.calls", "count"),
        ("dae.DaeDataset.features.s", "s"),
        ("dae.label_mean_m", "m"),
    ]
    for family in FAMILIES:
        rows += [(f"regressors.fit.{family}.calls", "count"), (f"regressors.fit.{family}.s", "s")]
    rows += [
        ("regressors.forest.nodes", "count"),
        ("regressors.forest.us_per_node", "us"),
        ("regressors.network.adam_step.calls", "count"),
        ("regressors.network.adam_step.s", "s"),
        ("regressors.network.training_loss_and_grads.s", "s"),
    ]
    for family in FAMILIES:
        rows += [
            (f"regressors.predict.{family}.calls", "count"),
            (f"regressors.predict.{family}.rows", "count"),
            (f"regressors.predict.{family}.s", "s"),
        ]
    rows += [
        ("regressors.predict.forest.us_per_call", "us"),
        ("regressors.predict.knn.rss_growth_mb", "MB"),
        ("regressors.store.load_model.s", "s"),
        ("regressors.store.model_bytes", "bytes"),
    ]
    rows += [(f"evaluation.evaluate_model.{label}.s", "s") for label in LINEUP_LABELS]
    rows += [
        ("evaluation.evaluate_model.self_s", "s"),
        ("evaluation.write.s", "s"),
        ("evaluation.write.bytes", "bytes"),
    ]
    rows += [(f"pipeline.stage.{stage}.s", "s") for stage in STAGES]
    rows += [
        ("cli.predict.self_us_per_scan", "us"),
        ("trace.overhead_frac", "1"),
    ]
    # A larger share of kept readings means less input is thrown away.
    return tuple((name, unit, "higher" if name == "signatures.readings_kept_frac" else "lower") for name, unit in rows)


PER_LAYER = _per_layer()


def tail_percentile(values, min_beyond: int = 10):
    """The highest of p99, p95, p90 and p50 with ``min_beyond`` samples above it.

    Returns ``(percent, value)``, or ``None`` when even the median has fewer
    than ``min_beyond`` samples beyond it.  Uses the nearest-rank percentile,
    so the reported value is one of the samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    for percent in (99, 95, 90, 50):
        rank = max(1, math.ceil(percent / 100 * n))  # 1-based nearest rank
        if n - rank >= min_beyond:
            return percent, float(ordered[rank - 1])
    return None
