"""Command-line interface.

Subcommands: ingest, build-dataset, train, evaluate, predict, synth, and
run (the full pipeline).  A command exits 0 on success, with the
``exit_code`` of the package error that stopped it, or 2 on an ``OSError``.
Every output file starts with a comment line carrying the hash of the
resolved parameters and the seed, so a run can be traced back to its
configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dae import (
    GROUPINGS,
    VARIANTS,
    build_dae_dataset,
    feature_rows,
    make_fold_plan,
    read_dae_dataset,
    write_dae_dataset,
)
from .errors import ConfigError, ContractError, DataError, DatasetError
from .evaluation import evaluate_model, write_ecdf_csv, write_pairs_csv, write_summary_csv
from .pipeline import PipelineConfig, load_config, provenance, run_pipeline
from .positioning import RadioMap, localize
from .regressors import MODEL_FAMILIES, ModelSpec, fit, load_model, save_model
from .signatures import (
    SIGNATURE_FORMATS,
    ApRegistry,
    build_registry,
    feature_matrix,
    parse_signatures,
    write_signatures,
)
from .synth import GridSpec, SynthWorld, generate_grid_dataset, perimeter_aps


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are configuration errors
        raise ConfigError(message)


def _parse_layers(text: str) -> tuple[int, ...]:
    try:
        layers = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"cannot parse layer widths from {text!r}; expected e.g. 128,128,128") from None
    if not layers:
        raise ConfigError("at least one layer width is required")
    return layers


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _stamp(args, **resolved) -> str:
    """The provenance stamp of every parsed argument but ``--out``, with ``resolved`` values on top."""
    params = {key: value for key, value in vars(args).items() if key not in ("func", "out")}
    return provenance({**params, **resolved})


def _fields_of(cls, args) -> dict:
    """The parsed arguments named like a field of dataclass ``cls``."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {key: value for key, value in vars(args).items() if key in names}


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_ingest(args) -> None:
    signatures = parse_signatures(args.input, args.format)
    write_signatures(signatures, args.out, comment=_stamp(args))
    print(f"wrote {len(signatures)} signatures to {args.out}")


def _cmd_synth(args) -> None:
    try:
        nx, ny = (int(part) for part in args.grid.lower().split("x"))
    except ValueError:
        raise ConfigError(f"cannot parse grid {args.grid!r}; expected e.g. 6x6") from None
    grid = GridSpec(nx=nx, ny=ny, spacing=args.spacing)
    world = SynthWorld(
        ap_positions=perimeter_aps(args.aps, (nx - 1) * args.spacing, (ny - 1) * args.spacing),
        tx_power=args.tx_power,
        path_loss_exponent=args.exponent,
        shadowing_sigma=args.sigma,
        detection_floor=args.floor,
        seed=args.seed,
    )
    signatures = generate_grid_dataset(world, grid, scans_per_point=args.scans)
    write_signatures(signatures, args.out, comment=_stamp(args))
    print(f"wrote {len(signatures)} synthetic signatures to {args.out}")


def _cmd_build_dataset(args) -> None:
    signatures = parse_signatures(args.input, args.format)
    registry = build_registry(signatures, args.ap_count)
    plan = make_fold_plan(
        len(signatures), args.folds, args.seed, args.grouping,
        point_ids=signatures.point_ids,
    )
    dataset = build_dae_dataset(signatures, registry, plan, variant=args.variant)
    write_dae_dataset(dataset, args.out, comment=_stamp(args))
    print(f"wrote {len(dataset)} records to {args.out}")


def _cmd_train(args) -> None:
    spec = ModelSpec(**{key: value for key, value in _fields_of(ModelSpec, args).items() if value is not None})
    dataset = read_dae_dataset(args.data)
    model = fit(spec, dataset)
    save_model(model, args.out)
    print(f"trained {spec.family} on {len(dataset)} records -> {args.out}")


def _cmd_evaluate(args) -> None:
    model = load_model(args.model)
    dataset = read_dae_dataset(args.data)
    label = args.label or model.spec.default_label()
    if args.holdout:
        holdout = read_dae_dataset(args.holdout)
        report = evaluate_model(model, dataset, protocol="holdout", holdout=holdout, label=label)
    else:
        report = evaluate_model(model, dataset, protocol="cross_fit", label=label)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stamp = _stamp(args, label=label, seed=model.spec.seed)
    write_summary_csv([report], out / "report.csv", comment=stamp)
    write_pairs_csv(report, out / "pairs.csv", comment=stamp)
    write_ecdf_csv(report, out / "ecdf.csv", comment=stamp)
    print(f"{label}: {report.summary_text()} -> {out}")


def _blind(table, registry: ApRegistry) -> np.ndarray:
    """Whether each row of ``table`` lacks a reading from every AP of ``registry``."""
    retained = [j for j, ap in enumerate(table.ap_ids) if registry.index_of(ap) is not None]
    return np.isnan(table.rssi[:, retained]).all(axis=1)


def _cmd_predict(args) -> None:
    model = load_model(args.model)  # checks the context
    ap_ids, variant = model.metadata["context"]["ap_ids"], model.metadata["context"]["variant"]
    registry = ApRegistry(aps=tuple(ap_ids), availability=(0,) * len(ap_ids))

    map_signatures = parse_signatures(args.map, args.format)
    if _blind(map_signatures, registry).all():
        raise DatasetError(f"map {args.map} has no reading from the model's {len(registry)} APs")
    radio_map = RadioMap.from_signatures(map_signatures, registry)
    scans = parse_signatures(args.scans, args.format)
    vectors = feature_matrix(scans, registry)

    writer = sys.stdout
    for point_id, vector, alone in zip(scans.point_ids, vectors, _blind(scans, registry).tolist()):
        if alone:
            print(f"warning: scan {point_id} has no reading from the model's {len(registry)} APs; "
                  "it is located from the imputed value alone", file=sys.stderr)
        estimate = localize(vector, radio_map)
        radius = model.predict(feature_rows(vector, [estimate.position.x, estimate.position.y], variant))
        writer.write(f"{estimate.position.x:.3f},{estimate.position.y:.3f},{radius:.3f}\n")


def _cmd_run(args) -> None:
    config = load_config(args.config, {**_fields_of(PipelineConfig, args), "fmt": args.format})
    run_pipeline(config)


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="daepos", description="Wi-Fi fingerprinting positioning with per-fix error estimation")
    parser.add_argument("--version", action="version", version=f"daepos {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_format(p):
        p.add_argument("--format", choices=SIGNATURE_FORMATS, default="canonical",
                       help="input signature file layout")

    p = sub.add_parser("ingest", help="normalize a signature file to the canonical CSV layout")
    p.add_argument("input", help="signature CSV to read")
    add_format(p)
    p.add_argument("--out", required=True, help="canonical CSV to write")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic survey with log-distance path loss")
    p.add_argument("--grid", default="6x6", help="survey grid as NXxNY (default 6x6)")
    p.add_argument("--spacing", type=float, default=2.0, help="grid spacing in meters")
    p.add_argument("--aps", type=int, default=8, help="number of APs around the area")
    p.add_argument("--scans", type=int, default=3, help="scans per grid point")
    p.add_argument("--sigma", type=float, default=2.0, help="shadowing standard deviation in dB")
    p.add_argument("--exponent", type=float, default=2.8, help="path loss exponent")
    p.add_argument("--tx-power", type=float, default=-40.0, help="received dBm at 1 m")
    p.add_argument("--floor", type=float, default=-95.0, help="detection floor in dBm")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="canonical CSV to write")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("build-dataset", help="build the error-regression dataset from signatures")
    p.add_argument("input", help="signature CSV to read")
    add_format(p)
    p.add_argument("--ap-count", type=_positive_int, default=35, help="APs to retain by availability")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--grouping", choices=GROUPINGS, default="by_signature")
    p.add_argument("--variant", choices=VARIANTS, default="plain",
                   help="append the estimated coordinates to the features")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="dataset CSV to write")
    p.set_defaults(func=_cmd_build_dataset)

    p = sub.add_parser("train", help="fit an error regressor on a dataset CSV")
    p.add_argument("data", help="dataset CSV from build-dataset")
    p.add_argument("--family", choices=MODEL_FAMILIES, required=True)
    p.add_argument("--trees", type=int, help="forest size")
    p.add_argument("--neighbors", dest="k", type=int, help="knn regression neighbors")
    p.add_argument("--layers", type=_parse_layers, help="network widths, e.g. 128,128,128")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a trained model fold-out-of-fit or on holdout records")
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--data", required=True, help="dataset CSV the model family trains on")
    p.add_argument("--holdout", help="external dataset CSV; switches to holdout evaluation")
    p.add_argument("--label", help="report row label")
    p.add_argument("--out", required=True, help="directory for report/pairs/ecdf files")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("predict", help="locate scans against a map and estimate their error radius")
    p.add_argument("scans", help="canonical CSV of scans to locate")
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--map", required=True, help="canonical CSV acting as the radio map")
    add_format(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("input", nargs="?", help="signature CSV (overrides the config file)")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", dest="out_dir", help="output directory (overrides the config file)")
    add_format(p)
    p.add_argument("--ap-count", type=int)
    p.add_argument("--folds", type=int)
    p.add_argument("--grouping", choices=GROUPINGS)
    p.add_argument("--seed", type=int)
    p.add_argument("--holdout-input", help="external signature CSV for the transfer row")
    p.set_defaults(func=_cmd_run)
    # `run --format` should not silently force canonical over a config value
    p.set_defaults(format=None)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except (ConfigError, DataError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
