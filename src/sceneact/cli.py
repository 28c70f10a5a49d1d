"""Command-line entry point.

Subcommands: ``generate`` (deterministic dataset files), ``train``
(phase short or long), ``eval`` (ablation sweeps over sampling
threshold, temporal support, aggregation strategy), ``inspect`` (raw
attention export for one clip). Exit codes: 0 success, 1 validation or
configuration error, 2 runtime abort (non-finite loss, I/O failure).

All outputs are pure functions of the config seed; no wall-clock or
environment state leaks into files.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

from . import autodiff as ad
from . import model as mdl
from .config import (
    RunConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    dump_config,
    load_config,
)
from .errors import ConfigError, ContractError, NanLossError, ParseError, ValidationError
from .evaluation import write_report
from .longterm import AggregationWeights, WindowingConfig
from .rng import RngStream
from .synthdata import (
    Dataset,
    annotation_records,
    generate_dataset,
    keyframe_grid,
    write_annotations,
)
from .training import (
    TrainState,
    evaluate_longterm,
    evaluate_short_term,
    load_train_state,
    run_windowed,
    save_train_state,
    train_long_term,
    train_short_term,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _ensure_out_dir(path: Path, force: bool):
    if path.exists() and any(path.iterdir()) and not force:
        raise ConfigError(f"output directory {path} is not empty (use --force)")
    path.mkdir(parents=True, exist_ok=True)


def _load_dataset_dir(dataset_dir) -> tuple[Dataset, RunConfig]:
    manifest_path = Path(dataset_dir) / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no manifest.json under {dataset_dir}")
    manifest = json.loads(manifest_path.read_text())
    cfg = config_from_dict(manifest["config"])
    if manifest.get("config_hash") != config_hash(cfg):
        raise ValidationError(f"manifest config hash mismatch in {dataset_dir}")
    return generate_dataset(cfg.scenario), cfg


def cmd_generate(args) -> int:
    cfg = load_config(args.config)
    out = Path(args.out)
    _ensure_out_dir(out, args.force)
    dataset = generate_dataset(cfg.scenario)
    write_annotations(out / "train_gt.csv", annotation_records(dataset.train))
    write_annotations(out / "eval_gt.csv", annotation_records(dataset.eval))
    manifest = {
        "config": config_to_dict(cfg),
        "config_hash": config_hash(cfg),
        "clips": [
            {"clip_id": c.clip_id, "split": split, "keyframe_time": c.keyframe_time}
            for split, clips in (("train", dataset.train), ("eval", dataset.eval))
            for c in clips
        ],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    dump_config(cfg, out / "resolved_config.json")
    print(f"generated {len(dataset.train)} train / {len(dataset.eval)} eval clips -> {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    dataset, cfg = _load_dataset_dir(args.dataset)
    if args.config:
        cfg = load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_config(cfg, out / "resolved_config.json")
    rng = RngStream(cfg.seed)
    log_lines: list[str] = []
    if args.phase == "short":
        state = None
        if args.resume:
            state, _, _ = load_train_state(args.resume, cfg.optimizer)
        state = train_short_term(
            dataset, cfg.model, cfg.loss, cfg.optimizer, rng,
            windowing=cfg.windowing, out_dir=out, state=state, log_lines=log_lines,
        )
        print(f"best held-out mAP {state.best_map:.4f}")
    else:
        if not args.checkpoint:
            raise ConfigError("--phase long requires --checkpoint from the short phase")
        state, model_cfg, _scenario = load_train_state(args.checkpoint, cfg.optimizer)
        weights, report = train_long_term(
            state, dataset, model_cfg, cfg.loss, cfg.optimizer, cfg.windowing
        )
        save_train_state(out / "longterm.ckpt", state, model_cfg, dataset.cfg)
        log_lines.append(
            f"long-term map {report['long_term_map']:.4f} "
            f"short-term map {report['short_term_map']:.4f}"
        )
        print(log_lines[-1])
    (out / "train_log.txt").write_text("\n".join(log_lines) + "\n")
    return EXIT_OK


def cmd_eval(args) -> int:
    dataset, cfg = _load_dataset_dir(args.dataset)
    state, model_cfg, scenario = load_train_state(args.checkpoint, cfg.optimizer)
    if args.variant and args.variant != model_cfg.variant:
        raise ConfigError(
            f"checkpoint was trained with variant {model_cfg.variant!r}, not {args.variant!r}"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    clips = dataset.eval
    ran = []

    thresholds = args.threshold or []
    if args.topk:
        thresholds = thresholds + ["topk"]
    if not thresholds and not args.support and not args.strategy:
        thresholds = ["topk"]
    for tau in thresholds:
        if tau == "topk":
            report = evaluate_short_term(
                state.params, model_cfg, clips, scenario, cfg.windowing,
                proposal_mode="topk",
            )
            name = "sampling_topk"
        else:
            report = evaluate_short_term(
                state.params, model_cfg, clips, scenario, cfg.windowing,
                proposal_mode="threshold", proposal_tau=float(tau),
            )
            name = f"sampling_tau_{float(tau):g}"
        write_report(report, out, name)
        ran.append((name, report.mean_ap))

    for support in args.support or []:
        windowing = WindowingConfig.from_support(
            float(support), cfg.windowing.t_before, cfg.windowing.t_after, cfg.windowing.stride
        )
        windowed = [
            run_windowed(state.params, model_cfg, c, windowing, scenario.grid_t) for c in clips
        ]
        weights = _weights_for(state, windowing, model_cfg)
        report = evaluate_longterm(windowed, scenario, weights)
        name = f"support_{float(support):g}s"
        write_report(report, out, name)
        ran.append((name, report.mean_ap))

    for strategy in args.strategy or []:
        windowed = [
            run_windowed(state.params, model_cfg, c, cfg.windowing, scenario.grid_t)
            for c in clips
        ]
        weights = _weights_for(state, cfg.windowing, model_cfg) if strategy == "weighted" else None
        report = evaluate_longterm(
            windowed, scenario, weights, strategy=strategy, topk=args.topk_k
        )
        name = f"strategy_{strategy}"
        write_report(report, out, name)
        ran.append((name, report.mean_ap))

    for name, mean_ap in ran:
        print(f"{name}: mAP {mean_ap:.4f}")
    return EXIT_OK


def _weights_for(state: TrainState, windowing: WindowingConfig,
                 model_cfg) -> AggregationWeights:
    if state.aggregation is not None and tuple(windowing.offsets) == state.aggregation.offsets:
        return state.aggregation
    return AggregationWeights.initial(windowing, model_cfg.num_classes)


def cmd_inspect(args) -> int:
    dataset, cfg = _load_dataset_dir(args.dataset)
    state, model_cfg, scenario = load_train_state(args.checkpoint, cfg.optimizer)
    clip = dataset.clip(args.clip)
    sink: list = []
    with ad.no_grad():
        grid = keyframe_grid(clip, cfg.windowing.t_before, cfg.windowing.t_after,
                             scenario.grid_t)
        mdl.forward_actions(
            state.params, model_cfg, clip.proposals, grid, RngStream(0),
            training=False, attn_sink=sink,
        )
    out_path = Path(args.attention)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "head", "query", "key", "weight"])
        for layer, head, weights in sink:
            for q in range(weights.shape[0]):
                for k in range(weights.shape[1]):
                    writer.writerow([layer, head, q, k, repr(float(weights[q, k]))])
    print(f"wrote attention for clip {clip.clip_id} -> {out_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sceneact",
                                     description="synthetic video action detection benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a deterministic dataset")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--force", action="store_true")
    p_gen.set_defaults(fn=cmd_generate)

    p_train = sub.add_parser("train", help="train the model (short) or weights (long)")
    p_train.add_argument("--config")
    p_train.add_argument("--dataset", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--phase", choices=["short", "long"], default="short")
    p_train.add_argument("--checkpoint", help="short-phase checkpoint (long phase)")
    p_train.add_argument("--resume", help="continue a short-phase run from a checkpoint")
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint, optionally sweeping ablations")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--strategy", action="append",
                        choices=["weighted", "max", "avg", "topk"])
    p_eval.add_argument("--support", action="append",
                        help="total temporal support in seconds (repeatable)")
    p_eval.add_argument("--threshold", action="append",
                        help="proposal confidence threshold (repeatable)")
    p_eval.add_argument("--topk", action="store_true",
                        help="evaluate dense top-K proposal sampling")
    p_eval.add_argument("--topk-k", type=int, default=1,
                        help="k for the topk aggregation strategy")
    p_eval.add_argument("--variant", choices=["unified", "decoder_only", "encoder_decoder"])
    p_eval.set_defaults(fn=cmd_eval)

    p_ins = sub.add_parser("inspect", help="export raw attention for one clip")
    p_ins.add_argument("--checkpoint", required=True)
    p_ins.add_argument("--dataset", required=True)
    p_ins.add_argument("--clip", required=True)
    p_ins.add_argument("--attention", required=True, help="output CSV path")
    p_ins.set_defaults(fn=cmd_inspect)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValidationError, ParseError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NanLossError as exc:
        diag_path = Path("nan_abort.json")
        diag_path.write_text(json.dumps(exc.diagnostics, sort_keys=True, indent=2) + "\n")
        print(f"abort: {exc} (diagnostics in {diag_path})", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
