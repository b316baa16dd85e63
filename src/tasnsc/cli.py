"""Command-line entry point: generate, train, evaluate, compare.

Exit codes: 0 success, 2 configuration or usage error, 3 runtime pipeline
failure or an output that cannot be written. Diagnostics go to stderr,
result tables to stdout. All numeric defaults live in
:class:`tasnsc.predictor.PipelineConfig`; a ``--config`` JSON file
overrides the defaults and explicit flags override the file.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

from .geometry import load_frame
from .metrics import THRESHOLD_DEG, check_threshold, evaluate, format_table, write_candidate_csv
from .predictor import PipelineConfig, PipelineError, load_model, save_model, train
from .synthgen import generate, load_scene, with_seed
from .trajectory import load_dataset, save_dataset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_CONFIG_ERRORS = (OSError, ValueError, KeyError, TypeError)
# Every other error the pipeline raises on bad data is a ValueError.
_PIPELINE_ERRORS = (PipelineError, ValueError)


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _threshold(text: str) -> float:
    try:
        return check_threshold(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_config(args) -> PipelineConfig:
    """Defaults, overridden by --config file, overridden by explicit flags."""
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = PipelineConfig.from_dict(json.load(fh))
    else:
        config = PipelineConfig()
    # Each flag's dest is the config field it sets.
    flags = {name: getattr(args, name, None) for name in ("k_atoms", "sparsity", "seed", "mode", "iters")}
    return replace(config, **{name: value for name, value in flags.items() if value is not None})


def _cmd_generate(args) -> int:
    try:
        scene = load_scene(args.scene)
        if args.seed is not None:
            scene = with_seed(scene, args.seed)
    except _CONFIG_ERRORS as exc:
        return _fail(EXIT_CONFIG, f"bad scene config: {exc}")
    try:
        dataset = generate(scene, args.n, dt=args.dt, tag=args.tag)
    except ValueError as exc:
        return _fail(EXIT_CONFIG, f"bad generation parameters: {exc}")
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} trajectories to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    try:
        config = _load_config(args)
        dataset = load_dataset(args.data)
        frame = load_frame(args.frame)
    except _CONFIG_ERRORS as exc:
        return _fail(EXIT_CONFIG, str(exc))
    try:
        model = train(dataset, frame, config)
        save_model(model, args.out)
    except _PIPELINE_ERRORS as exc:
        return _fail(EXIT_RUNTIME, f"training failed: {exc}")
    print(
        f"trained {config.mode} model: {model.dictionary.k} atoms, "
        f"{len(model.patterns)} patterns, final objective {model.final_objective:.6f}"
    )
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    try:
        model = load_model(args.model)
        dataset = load_dataset(args.data)
        frame = load_frame(args.frame)
    except _CONFIG_ERRORS as exc:
        return _fail(EXIT_CONFIG, str(exc))
    collected: list | None = [] if args.emit_plots else None
    try:
        report = evaluate(
            model,
            dataset,
            frame,
            threshold=args.threshold,
            weighted_mhd=args.weighted_mhd,
            collect_predictions=collected,
        )
    except _PIPELINE_ERRORS as exc:
        return _fail(EXIT_RUNTIME, f"evaluation failed: {exc}")
    report.to_json(args.report)
    if args.emit_plots:
        os.makedirs(args.emit_plots, exist_ok=True)
        for observed, truth, pset in collected:
            name = observed.id.replace("/", "_") + ".csv"
            write_candidate_csv(os.path.join(args.emit_plots, name), observed, truth, pset)
    print(format_table([report.table_row(model.config.mode, "-", "test")]))
    return EXIT_OK


def _cmd_compare(args) -> int:
    try:
        config = _load_config(args)
        train_a = load_dataset(args.train_a)
        test_a = load_dataset(args.test_a)
        train_b = load_dataset(args.train_b)
        test_b = load_dataset(args.test_b)
        frame_a = load_frame(args.frame_a)
        frame_b = load_frame(args.frame_b)
    except _CONFIG_ERRORS as exc:
        return _fail(EXIT_CONFIG, str(exc))

    # The comparison grid: baselines on their own intersection, the
    # transferable model both same- and cross-intersection.
    grid = [
        ("baseline", train_a, frame_a, test_a, frame_a, "A", "A"),
        ("tasnsc", train_a, frame_a, test_a, frame_a, "A", "A"),
        ("tasnsc", train_b, frame_b, test_a, frame_a, "B", "A"),
        ("baseline", train_b, frame_b, test_b, frame_b, "B", "B"),
        ("tasnsc", train_b, frame_b, test_b, frame_b, "B", "B"),
        ("tasnsc", train_a, frame_a, test_b, frame_b, "A", "B"),
    ]
    rows = []
    try:
        models = {}
        for mode, tr_data, tr_frame, te_data, te_frame, tr_name, te_name in grid:
            key = (mode, tr_name)
            if key not in models:
                models[key] = train(tr_data, tr_frame, replace(config, mode=mode))
            report = evaluate(models[key], te_data, te_frame, threshold=args.threshold)
            rows.append(report.table_row(mode, tr_name, te_name))
    except _PIPELINE_ERRORS as exc:
        return _fail(EXIT_RUNTIME, f"comparison failed: {exc}")

    with open(args.out, "w") as fh:
        json.dump({"threshold_deg": args.threshold, "rows": rows}, fh, indent=2)
        fh.write("\n")
    print(format_table(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tasnsc",
        description="Transferable pedestrian trajectory prediction across intersection geometries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic trajectory dataset")
    p.add_argument("--scene", required=True, help="scene config JSON")
    p.add_argument("--n", required=True, type=int, help="number of trajectories")
    p.add_argument("--out", required=True, help="output dataset file (JSON lines)")
    p.add_argument("--seed", type=int, default=None, help="override the scene seed")
    p.add_argument("--dt", type=float, default=PipelineConfig().dt, help="sampling interval, seconds")
    p.add_argument("--tag", default="train", help="id prefix / split tag")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train a prediction model")
    p.add_argument("--data", required=True, help="training dataset (JSON lines)")
    p.add_argument("--frame", required=True, help="curbside frame config JSON")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--mode", choices=["tasnsc", "baseline"], default=None)
    p.add_argument("--k", dest="k_atoms", type=int, default=None, help="dictionary size")
    p.add_argument("--lambda", dest="sparsity", type=float, default=None, help="sparsity weight")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--iters", type=int, default=None, help="dictionary learning sweeps")
    p.add_argument("--config", default=None, help="pipeline config JSON")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a model on a test dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--frame", required=True)
    p.add_argument("--report", required=True, help="output report JSON")
    p.add_argument("--threshold", type=_threshold, default=THRESHOLD_DEG, help="correctness cone, degrees")
    p.add_argument("--emit-plots", default=None, metavar="DIR", help="write per-trajectory CSVs")
    p.add_argument("--weighted-mhd", action="store_true", help="also report likelihood-weighted MHD")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="run the full cross-intersection comparison grid")
    p.add_argument("--train-a", required=True)
    p.add_argument("--test-a", required=True)
    p.add_argument("--train-b", required=True)
    p.add_argument("--test-b", required=True)
    p.add_argument("--frame-a", required=True)
    p.add_argument("--frame-b", required=True)
    p.add_argument("--out", required=True, help="output comparison JSON")
    p.add_argument("--threshold", type=_threshold, default=THRESHOLD_DEG)
    p.add_argument("--k", dest="k_atoms", type=int, default=None)
    p.add_argument("--lambda", dest="sparsity", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except OSError as exc:  # every command reads its inputs under its own handler first
        return _fail(EXIT_RUNTIME, f"cannot write output: {exc}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
