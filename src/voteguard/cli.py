"""Command-line interface wiring the library into an experiment pipeline.

Subcommands: synth, train, predict, sweep-threshold, sweep-size. Every
command is deterministic given its flags and seeds; replaying a command
produces byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import data as datamod
from . import ensemble, harness, persist
from .ensemble import EnsembleConfig
from .learners import (FEATURE_SUBSAMPLES, LEARNER_KINDS, GradientParams,
                       LearnerConfig, TreeParams)

UNCERTAIN = "uncertain"


# a flag's default is the default of the config field it sets, and that
# config class checks the flag's value
def _learner_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--learner", choices=LEARNER_KINDS,
                        default=LearnerConfig.kind)
    parser.add_argument("--max-depth", type=int, default=TreeParams.max_depth)
    parser.add_argument("--min-samples-split", type=int,
                        default=TreeParams.min_samples_split)
    parser.add_argument("--feature-subsample", choices=FEATURE_SUBSAMPLES,
                        default=TreeParams.feature_subsample)
    parser.add_argument("--max-iters", type=int,
                        default=GradientParams.max_iters)
    parser.add_argument("--tolerance", type=float,
                        default=GradientParams.tolerance)
    parser.add_argument("--l2", type=float, default=GradientParams.l2)


def _ensemble_flags(parser: argparse.ArgumentParser) -> None:
    _learner_flags(parser)
    parser.add_argument("--master-seed", type=int,
                        default=EnsembleConfig.master_seed)
    parser.add_argument("--posterior-mode",
                        choices=(ensemble.HARD_VOTE, ensemble.SOFT_AVERAGE),
                        default=EnsembleConfig.posterior_mode)
    parser.add_argument(
        "--log-base", choices=("2", "e"),
        default=persist.log_base_tag(EnsembleConfig.entropy_log_base))
    parser.add_argument(
        "--workers", type=int, default=1,
        help="accepted and ignored, kept for existing command lines; "
             "members are fitted one after another (must be >= 1)")


def _ensemble_config(args, m: int = EnsembleConfig.m) -> EnsembleConfig:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    base = LearnerConfig(
        kind=args.learner,
        tree=TreeParams(max_depth=args.max_depth,
                        min_samples_split=args.min_samples_split,
                        feature_subsample=args.feature_subsample),
        gradient=GradientParams(max_iters=args.max_iters,
                                tolerance=args.tolerance, l2=args.l2),
    )
    return EnsembleConfig(
        base=base,
        m=m,
        master_seed=args.master_seed,
        posterior_mode=args.posterior_mode,
        entropy_log_base=persist.log_base_from_tag(args.log_base),
    )


def _load(args, known=(), other=(), model=None):
    """The datasets the flags ``known`` then ``other`` name (None for a
    flag not given), read under one load of the manifest. ``known`` data
    is fitted or scored as known, so a row whose app id the manifest
    declares unknown fails the command; ``other`` data may hold any. With
    a ``model``, the manifest must list its classes in its order, or as
    many classes if the model has no class names."""
    schema, unknown_ids = datamod.load_manifest(args.manifest)
    names = schema.class_names
    if model is not None and (names != model.class_names if model.class_names
                              else len(names) != model.n_classes):
        theirs = (list(model.class_names) if model.class_names
                  else f"{model.n_classes} unnamed classes")
        raise ValueError(f"{args.manifest}: classes {list(names)} differ "
                         f"from those of {args.model}: {theirs}")
    loaded = []
    for attr in (*known, *other):
        path = getattr(args, attr)
        data = None if path is None else datamod.load_csv(path, schema)
        if attr in known:
            declared = unknown_ids.intersection(data.app_ids)
            if declared:
                raise ValueError(f"{path}: app ids declared unknown in "
                                 f"{args.manifest}: {sorted(declared)[:5]}")
        loaded.append(data)
    return loaded


def _cmd_synth(args) -> int:
    spec = datamod.SyntheticSpec(
        regime=args.regime, n_train=args.n_train, n_test=args.n_test,
        n_unknown=args.n_unknown, d=args.d,
        class_separation=args.class_separation,
        ood_distance=args.ood_distance, seed=args.seed)
    taxonomy = datamod.generate_synthetic(spec)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    schema = datamod.CsvSchema(
        label_column="label", app_id_column="app_id",
        feature_columns=tuple(f"f{i}" for i in range(spec.d)),
        class_names=("benign", "malware"))
    datamod.write_csv(taxonomy.train, out / "train.csv", schema)
    datamod.write_csv(taxonomy.test_known, out / "test_known.csv", schema)
    manifest = {
        "classes": list(schema.class_names),
        "label_column": schema.label_column,
        "app_id_column": schema.app_id_column,
        "feature_columns": list(schema.feature_columns),
        "unknown_app_ids": [],
    }
    if taxonomy.unknown is not None:
        datamod.write_csv(taxonomy.unknown, out / "unknown.csv", schema)
        manifest["unknown_app_ids"] = [datamod.UNKNOWN_APP_ID]
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.regime} datasets to {out}")
    return 0


def _cmd_train(args) -> int:
    config = _ensemble_config(args, args.m)
    train_data, = _load(args, known=("data",))
    model = ensemble.fit(config, train_data)
    persist.save_model(model, args.out)
    print(f"trained m={len(model.learners)} {args.learner} ensemble "
          f"on {len(train_data)} samples -> {args.out}")
    not_converged = sum(not learner.converged for learner in model.learners)
    if not_converged:
        print(f"warning: {not_converged} base classifiers "
              f"did not converge", file=sys.stderr)
    return 0


def _cmd_predict(args) -> int:
    model = persist.load_model(args.model)
    eval_data, = _load(args, other=("data",), model=model)
    names = model.class_names or tuple(
        str(i) for i in range(model.n_classes))
    pred = ensemble.predict(model, eval_data.x)
    reject = ensemble.rejected(pred, args.threshold)
    print("index\tapp_id\tverdict\tentropy")
    for i, (app_id, label, h, r) in enumerate(zip(
            eval_data.app_ids, pred.label.tolist(), pred.entropy.tolist(),
            reject.tolist())):
        print(f"{i}\t{app_id}\t{UNCERTAIN if r else names[label]}\t{h:.6f}")
    return 0


def _cmd_sweep_threshold(args) -> int:
    model = persist.load_model(args.model)
    test_known, unknown = _load(args, known=("test_known",),
                                other=("unknown",), model=model)
    # the taxonomy checks this too, but cannot name the files
    shared = (set() if unknown is None
              else set(unknown.app_ids).intersection(test_known.app_ids))
    if shared:
        raise ValueError(f"{args.unknown}: app ids also in "
                         f"{args.test_known}: {sorted(shared)[:5]}")
    taxonomy = datamod.DatasetTaxonomy(test_known=test_known, unknown=unknown)
    grid = harness.default_threshold_grid(model.n_classes,
                                          model.config.entropy_log_base,
                                          points=args.grid_points)
    report = harness.run_threshold_sweep(model, taxonomy, grid,
                                         positive_class=args.positive_class)
    harness.emit_report(report, args.out, fmt=args.format)
    print(f"wrote threshold sweep ({len(grid)} points) -> {args.out}")
    return 0


def _m_grid(text: str) -> list[int]:
    """The ``--m-grid`` sizes: integers between commas, blanks skipped;
    run_stability_sweep checks them."""
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"--m-grid must be comma-separated integers, "
                         f"got {text!r}") from None


def _cmd_sweep_size(args) -> int:
    m_grid = _m_grid(args.m_grid)
    # run_stability_sweep sets m to each size of the grid in turn
    config = _ensemble_config(args)
    train_data, eval_data = _load(args, known=("data",), other=("eval",))
    report = harness.run_stability_sweep(config, train_data, eval_data,
                                         m_grid)
    harness.emit_report(report, args.out, fmt=args.format)
    print(f"wrote stability sweep over M={m_grid} -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voteguard",
        description="Bagging ensembles with vote-entropy rejection of "
                    "uncertain and unknown workloads.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    spec = datamod.SyntheticSpec
    p.add_argument("--regime", choices=datamod.REGIMES, required=True)
    p.add_argument("--n-train", type=int, default=spec.n_train)
    p.add_argument("--n-test", type=int, default=spec.n_test)
    p.add_argument("--n-unknown", type=int, default=spec.n_unknown)
    p.add_argument("--d", type=int, default=spec.d)
    p.add_argument("--class-separation", type=float,
                   default=spec.class_separation)
    p.add_argument("--ood-distance", type=float, default=spec.ood_distance)
    p.add_argument("--seed", type=int, default=spec.seed)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="fit an ensemble and save it")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--m", type=int, default=EnsembleConfig.m,
                   help="number of base classifiers")
    _ensemble_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="per-sample verdicts with entropy")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--threshold", type=float, required=True,
                   help="reject predictions whose entropy exceeds this "
                        "(a finite number >= 0), and inputs outside the "
                        "training range")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("sweep-threshold",
                       help="rejection rates and metrics vs entropy threshold")
    p.add_argument("--model", required=True)
    p.add_argument("--test-known", required=True, dest="test_known")
    p.add_argument("--unknown", default=None)
    p.add_argument("--manifest", required=True)
    p.add_argument("--grid-points", type=int,
                   default=harness.DEFAULT_GRID_POINTS)
    p.add_argument("--positive-class", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_sweep_threshold)

    p = sub.add_parser("sweep-size",
                       help="entropy statistics vs ensemble size")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--eval", required=True, help="evaluation CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--m-grid", required=True,
                   help="comma-separated ensemble sizes, e.g. 2,4,8,16")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _ensemble_flags(p)
    p.set_defaults(func=_cmd_sweep_size)
    return parser


# library parameters whose flag is not "--" + the name, "_" written "-"
_FLAG_OF = {"points": "--grid-points"}


def _naming_flag(message: str, args) -> str:
    """A library check's ``message``, which starts with the name of the
    parameter it checks (``max_depth must be >= 1, got 0``), with that
    name replaced by the flag that set it, if the command has that flag."""
    name, must, rest = message.partition(" must ")
    flag = _FLAG_OF.get(name, "--" + name.replace("_", "-"))
    if must and flag[2:].replace("-", "_") in vars(args):
        return f"{flag}{must}{rest}"
    return message


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {_naming_flag(str(exc), args)}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy names the allocation that failed; a bare MemoryError names
        # nothing
        print(f"error: out of memory: {exc}".rstrip(": "), file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
