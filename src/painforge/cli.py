"""Command-line pipeline: generate, train, evaluate, or run everything.

Exit codes: 0 success, 1 runtime or I/O failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .config import RunConfig, load_config
from .errors import ConfigError, PainforgeError
from .evaluation import evaluate_model
from .facesynth.dataset import (build_dataset, demographic_summary,
                                teacher_rows)
from .fileio import (append_json_line, file_sha256, read_manifest, write_json,
                     write_manifest)
from .metrics import subject_holdout
from .rng import STREAM_SPLIT
from .training import train_student, train_teacher
from .workers import worker_count

TABLE_ROWS = (("Baseline", "baseline"),
              ("+AU-Query", "auquery"),
              ("+AU-Query+Heatmap", "distilled"),
              ("Teacher", "teacher"))
# The pipeline's training stages, in order: (stage, model role, whether it
# distils from the teacher stage's checkpoint).
PIPELINE_STAGES = (("teacher", "teacher", False),
                   ("baseline", "baseline", False),
                   ("auquery", "student", False),
                   ("distilled", "student", True))


def append_ledger(out_root: Path, stage: str, config_hash: str, seed: int,
                  input_manifest: str | None, outputs: list[str],
                  wall_time_s: float) -> None:
    """Append one record to <out_root>/ledger.jsonl, the append-only record
    tying every stage's outputs to its config hash."""
    record = {"stage": stage, "config_hash": config_hash, "seed": seed,
              "input_manifest_hash": (file_sha256(input_manifest)
                                      if input_manifest else None),
              "outputs": [str(p) for p in outputs],
              "wall_time_s": round(wall_time_s, 3)}
    Path(out_root).mkdir(parents=True, exist_ok=True)
    append_json_line(Path(out_root) / "ledger.jsonl", record)


def _print_summary(rows) -> None:
    summary = demographic_summary(rows)
    frames = len(rows)
    heatmaps = len({r["heatmap_path"] for r in rows if r["heatmap_path"]})
    print(f"frames: {frames}")
    print(f"heatmaps: {heatmaps}")
    print(f"identities: {summary['total']}")
    for category in ("age", "ethnicity", "gender"):
        entries = ", ".join(f"{k} {v}" for k, v in sorted(summary[category].items()))
        print(f"  {category}: {entries}")


def _generate_stage(config: RunConfig, resume: bool):
    """Build the dataset under <out>/data, print its summary and log it."""
    t0 = time.perf_counter()
    manifest = build_dataset(config.dataset_spec(), config.out_root / "data",
                             resume=resume)
    rows = read_manifest(manifest)
    _print_summary(rows)
    append_ledger(config.out_root, "generate", config.hash(), config.seed, None,
                  [manifest], time.perf_counter() - t0)
    return manifest, rows


def cmd_generate(args) -> int:
    config = load_config(args.config).override(seed=args.seed, out=args.out)
    manifest, _ = _generate_stage(config, resume=args.resume)
    print(f"manifest: {manifest}")
    return 0


def _train_stage(config: RunConfig, stage: str, role: str, manifest: Path,
                 teacher_ckpt=None):
    """Train one model role into <out>/train_<stage> and log it."""
    out_dir = config.out_root / f"train_{stage}"
    t0 = time.perf_counter()
    if role == "teacher":
        ckpt, report = train_teacher(
            manifest, out_dir, model_config=config.model_config(),
            train_config=config.train_config(), loss_weights=config.loss_weights())
    else:
        ckpt, report = train_student(
            manifest, out_dir, teacher_checkpoint=teacher_ckpt,
            model_config=config.model_config(use_au_queries=role != "baseline"),
            train_config=config.train_config(), loss_weights=config.loss_weights())
    append_ledger(
        config.out_root, f"train_{stage}", config.hash(), config.seed, str(manifest),
        [str(ckpt), str(out_dir / "train_report.jsonl")], time.perf_counter() - t0)
    return ckpt, report


def cmd_train(args) -> int:
    if args.teacher and args.role != "student":
        raise ConfigError(f"--role {args.role} does not take --teacher")
    config = load_config(args.config).override(seed=args.seed, out=args.out)
    ckpt, report = _train_stage(config, args.role, args.role, Path(args.data),
                                args.teacher)
    print(f"checkpoint: {ckpt}")
    if report.best_val_macro_auroc is not None:
        print(f"best validation macro AUROC: {report.best_val_macro_auroc:.4f} "
              f"(epoch {report.best_epoch})")
    return 0


def _print_metrics_table(rows: list[tuple[str, dict]]) -> None:
    header = f"{'model':>22} | {'macroAUROC':>10} | {'acc':>6} | {'acc±1':>6} | {'acc±2':>6}"
    print(header)
    print("-" * len(header))
    for name, block in rows:
        print(f"{name:>22} | {block['macro_auroc']:>10.4f} | "
              f"{block['acc_exact']:>6.3f} | {block['acc_tol1']:>6.3f} | "
              f"{block['acc_tol2']:>6.3f}")


def cmd_evaluate(args) -> int:
    try:
        thresholds = tuple(int(t) for t in args.thresholds.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad value for --thresholds: {args.thresholds!r} "
                          f"(comma-separated integers)") from exc
    t0 = time.perf_counter()
    report = evaluate_model(args.ckpt, args.data,
                            k_folds=args.folds, thresholds=thresholds,
                            seed=args.seed)
    out_path = Path(args.out) if args.out else Path(args.ckpt).parent / "eval_report.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_json(out_path, report)
    blocks = [("aggregate", report["aggregate"])]
    blocks += [(f"fold {b['fold']}", b) for b in report["folds"]]
    _print_metrics_table(blocks)
    for threshold in thresholds:
        entry = report["overall"]["binary"][str(threshold)]
        auroc = "n/a" if entry["auroc"] is None else f"{entry['auroc']:.4f}"
        print(f"binary @ PSPI >= {threshold}: AUROC {auroc}, "
              f"F1@0.5 {entry['f1_at_0.5']:.4f}, best F1 {entry['f1_best']:.4f}")
    print(f"report: {out_path}")
    append_ledger(out_path.parent, "evaluate", "-", args.seed, str(args.data),
                  [str(out_path)], time.perf_counter() - t0)
    return 0


def cmd_pipeline(args) -> int:
    config = load_config(args.config).override(out=args.out)
    out_root = config.out_root
    stage = "generate"
    try:
        _, rows = _generate_stage(config, resume=True)

        # Test subjects come from their own keyed stream, independent of the
        # training runs' validation split.
        test = subject_holdout([r["split_subject_id"] for r in rows], 0.2,
                               (config.seed, STREAM_SPLIT, 999))
        if not test:
            raise ConfigError("the test split is empty: one identity leaves none "
                              "to hold out; dataset.identities must be >= 2")
        test_rows = [r for r in rows if r["split_subject_id"] in test]
        # The teacher is scored on its own rows of the split, which can hold
        # one PSPI value when the whole split holds two.
        for split, split_rows in (("test split", test_rows),
                                  ("teacher's share of the test split",
                                   teacher_rows(test_rows))):
            classes = sorted({r["pspi"] for r in split_rows})
            if len(classes) < 2:
                raise ConfigError(f"the {split} holds only PSPI {classes} over "
                                  f"{len(test)} subjects; its macro AUROC needs two "
                                  f"classes (see dataset.pspi_distribution)")
        train_manifest = out_root / "data" / "manifest_train.jsonl"
        test_manifest = out_root / "data" / "manifest_test.jsonl"
        write_manifest(train_manifest,
                       [r for r in rows if r["split_subject_id"] not in test])
        write_manifest(test_manifest, test_rows)

        checkpoints = {}
        for name, role, distils in PIPELINE_STAGES:
            stage = f"train_{name}"
            checkpoints[name], _ = _train_stage(
                config, name, role, train_manifest,
                checkpoints["teacher"] if distils else None)
            print(f"{stage} done")

        stage = "evaluate"
        t0 = time.perf_counter()
        table = []
        final = {"config_hash": config.hash(), "seed": config.seed, "models": {}}
        for label, key in TABLE_ROWS:
            report = evaluate_model(checkpoints[key], test_manifest)
            final["models"][key] = report
            table.append((label, report["overall"]))
        final_path = out_root / "final_report.json"
        write_json(final_path, final)
        _print_metrics_table(table)
        print(f"final report: {final_path}")
        append_ledger(out_root, stage, config.hash(), config.seed,
                      str(test_manifest), [str(final_path)],
                      time.perf_counter() - t0)
        return 0
    except PainforgeError as exc:
        # Same type, so ``main`` prints one line and keeps the exit code.
        raise type(exc)(f"pipeline failed at stage {stage}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="painforge",
        description="Synthetic facial pain data generation, training, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="render a dataset and write its manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one model role")
    p.add_argument("--role", required=True, choices=["teacher", "student", "baseline"])
    p.add_argument("--data", required=True, help="manifest path")
    p.add_argument("--teacher", default=None, help="teacher checkpoint for distillation")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a manifest")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--thresholds", default="2,3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="generate, train all roles, evaluate")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        worker_count()  # a bad PAINFORGE_THREADS ends any command before it starts
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PainforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
