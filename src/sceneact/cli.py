"""Command-line entry point.

Subcommands: ``generate`` (deterministic dataset files), ``train``
(phase short or long), ``eval`` (ablation sweeps over sampling
threshold and aggregation strategy), ``inspect`` (raw attention export
for one clip). Every ``eval`` strategy fuses the windows that the
checkpoint's weights were fitted on, so a temporal support is swept by
fitting at it with ``train --phase long``. Exit codes: 0 success, 1
validation or configuration error, 2 runtime abort (non-finite loss,
with diagnostics in ``nan_abort.json`` under ``--out``; I/O failure).

All outputs are pure functions of the config seed; no wall-clock or
environment state leaks into files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
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
from .errors import ConfigError, ContractError, NanLossError, ValidationError
from .evaluation import write_report
from .longterm import STRATEGIES, AggregationWeights
from .rng import RngStream
from .synthdata import (
    Dataset,
    annotation_records,
    generate_dataset,
    keyframe_grid,
    write_annotations,
)
from .training import (
    evaluate_longterm,
    evaluate_short_term,
    load_train_state,
    run_windowed,
    save_train_state,
    train_long_term,
    train_short_term,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _ensure_out_dir(path: Path, force: bool):
    if path.exists() and any(path.iterdir()) and not force:
        raise ConfigError(f"output directory {path} is not empty (use --force)")
    path.mkdir(parents=True, exist_ok=True)


def _require_match(source: str, reference: str, **pairs):
    """Raise ``ValidationError`` naming each field where a ``(given, expected)`` pair differs."""
    found = []
    for section, (given, expected) in pairs.items():
        differ = [f.name for f in dataclasses.fields(expected)
                  if getattr(given, f.name) != getattr(expected, f.name)]
        if differ:
            found.append(f"{section} differs from {reference} on {differ}")
    if found:
        raise ValidationError(f"{source}: " + "; ".join(found))


def _load_checkpoint(path, cfg: RunConfig, dataset_dir, windowed: bool = False):
    """``load_train_state``, refusing a checkpoint made for another scenario than the dataset's,
    and an actor_only one for ``windowed`` fusion, where every window would score the same."""
    state, model_cfg, scenario = load_train_state(path, cfg.optimizer)
    _require_match(f"checkpoint {path}", f"the manifest in {dataset_dir}",
                   scenario=(scenario, cfg.scenario))
    if windowed and model_cfg.variant == "actor_only":
        raise ConfigError(f"checkpoint {path} is actor_only, which reads no scene window; "
                          f"--phase long and --strategy need a scene-reading model")
    return state, model_cfg, scenario


def _load_dataset_dir(dataset_dir, config_path=None,
                      with_train: bool = True) -> tuple[Dataset, RunConfig]:
    """Check the manifest, then regenerate its dataset (``with_train=False``: its eval split).

    A ``config_path`` replaces the manifest's run configuration, but its
    scenario (seed included) must be the one the dataset was made from.
    """
    manifest_path = Path(dataset_dir) / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no manifest.json under {dataset_dir}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or "config" not in manifest:
        raise ValidationError(f"{manifest_path} has no run config")
    cfg = config_from_dict(manifest["config"], str(manifest_path))
    if manifest.get("config_hash") != config_hash(cfg):
        raise ValidationError(f"manifest config hash mismatch in {dataset_dir}")
    if config_path:
        given = load_config(config_path)
        _require_match(str(config_path), f"the manifest in {dataset_dir}",
                       scenario=(given.scenario, cfg.scenario))
        cfg = given
    return generate_dataset(cfg.scenario, with_train), cfg


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
    # check the flags and the checkpoint before --out exists, so a refused run leaves nothing
    if args.phase == "long" and not args.checkpoint:
        raise ConfigError("--phase long requires --checkpoint from the short phase")
    if args.phase == "short" and args.checkpoint:
        raise ConfigError("--checkpoint is for --phase long; the short phase resumes with --resume")
    if args.phase == "long" and args.resume:
        raise ConfigError("--resume is for the short phase; --phase long takes --checkpoint")
    dataset, cfg = _load_dataset_dir(args.dataset, args.config)
    state = None
    if args.phase == "long":
        state, model_cfg, _scenario = _load_checkpoint(args.checkpoint, cfg, args.dataset,
                                                       windowed=True)
    elif args.resume:
        state, model_cfg, scenario = load_train_state(args.resume, cfg.optimizer)
        _require_match(f"checkpoint {args.resume}", "the run config",
                       model=(model_cfg, cfg.model), scenario=(scenario, cfg.scenario))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_config(cfg, out / "resolved_config.json")
    log_lines: list[str] = []
    if args.phase == "short":
        state = train_short_term(
            dataset, cfg.model, cfg.loss, cfg.optimizer, RngStream(cfg.seed),
            windowing=cfg.windowing, out_dir=out, state=state, log_lines=log_lines,
        )
        print(f"best held-out mAP {state.best_map:.4f}")
    else:
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


def _finite(flag: str, text: str) -> float:
    """``text`` as a finite number, else a ``ConfigError`` naming ``flag``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{flag} takes a finite number, got {text!r}")
    return value


def cmd_eval(args) -> int:
    # check every sweep value and the checkpoint before --out exists, so a refused eval
    # writes nothing
    if args.topk_k < 1:
        raise ConfigError(f"--topk-k must be at least 1, got {args.topk_k}")
    taus = [_finite("--threshold", text) for text in args.threshold or []]
    for tau in taus:
        if not 0.0 <= tau <= 1.0:
            raise ConfigError(f"--threshold must lie in [0, 1], got {tau:g}")
    strategies = args.strategy or []
    samplings = [(f"sampling_tau_{tau:g}", "threshold", tau) for tau in taus]
    if args.topk or not (taus or strategies):
        samplings.append(("sampling_topk", "topk", 0.0))
    names = [name for name, _mode, _tau in samplings] + [f"strategy_{s}" for s in strategies]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"eval would write the reports {repeated} twice: give each "
                          f"--strategy once, and --threshold values that differ within "
                          f"6 significant digits")
    dataset, cfg = _load_dataset_dir(args.dataset, with_train=False)
    state, model_cfg, scenario = _load_checkpoint(args.checkpoint, cfg, args.dataset,
                                                  windowed=bool(strategies))
    # every strategy fuses the windows of the fitted weights; a phase-1 checkpoint has
    # none, so the manifest's windows with the one-hot weights of the short-term model
    weights = state.aggregation or AggregationWeights.initial(cfg.windowing,
                                                              model_cfg.num_classes)
    windowing = weights.windowing
    if "topk" in strategies and args.topk_k > windowing.num_windows:
        raise ConfigError(f"--topk-k {args.topk_k} exceeds the {windowing.num_windows} "
                          f"windows that --strategy topk fuses")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    clips = dataset.eval
    ran = []
    for name, mode, tau in samplings:
        report = evaluate_short_term(state.params, model_cfg, clips, scenario, cfg.windowing,
                                     proposal_mode=mode, proposal_tau=tau)
        write_report(report, out, name)
        ran.append((name, report.mean_ap))
    for strategy in strategies:
        windowed = [run_windowed(state.params, model_cfg, c, windowing) for c in clips]
        report = evaluate_longterm(windowed, scenario, weights, strategy=strategy,
                                   topk=args.topk_k)
        write_report(report, out, f"strategy_{strategy}")
        ran.append((f"strategy_{strategy}", report.mean_ap))

    for name, mean_ap in ran:
        print(f"{name}: mAP {mean_ap:.4f}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    """Export attention weights per (layer, head, query, key).

    Unified: tokens count the K actors first, then the N scene tokens, and the
    last layer is (K, K + N). Actor-only: every layer is K × K. Other variants
    export only their K × N actor-to-scene cross-attention, keys numbering the
    scene tokens from 0.
    """
    dataset, cfg = _load_dataset_dir(args.dataset)
    state, model_cfg, _scenario = _load_checkpoint(args.checkpoint, cfg, args.dataset)
    clip = dataset.clip(args.clip)
    sink: list = []
    with ad.no_grad():
        grid = (None if model_cfg.variant == "actor_only"
                else keyframe_grid(clip, cfg.windowing.t_before, cfg.windowing.t_after))
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
    p_train.add_argument("--config", help="run config; its scenario must match the dataset's")
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
    p_eval.add_argument("--strategy", action="append", choices=STRATEGIES)
    p_eval.add_argument("--threshold", action="append",
                        help="proposal confidence threshold (repeatable)")
    p_eval.add_argument("--topk", action="store_true",
                        help="evaluate dense top-K proposal sampling")
    p_eval.add_argument("--topk-k", type=int, default=1,
                        help="k for the topk aggregation strategy")
    p_eval.set_defaults(fn=cmd_eval)

    p_ins = sub.add_parser("inspect", help="export raw attention for one clip "
                           "(unified: actors then scene tokens; actor_only: actors only; "
                           "other variants: actor-to-scene cross-attention only)")
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
    except (ConfigError, ValidationError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NanLossError as exc:
        diag_path = Path(args.out) / "nan_abort.json"
        diag_path.write_text(json.dumps(exc.diagnostics, sort_keys=True, indent=2) + "\n")
        print(f"abort: {exc} (diagnostics in {diag_path})", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
