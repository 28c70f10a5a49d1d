"""Optimization loops tying the pipeline together.

Phase 1 trains the relation model on short keyframe windows with
temporal augmentation: embed, relate, classify, set loss, backward,
clipped AdamW step. Each train clip's match and padded targets are
constants of the data, computed once per call before the first step. A
step records one tape per ``longterm.stack_runs`` stack of clips on the
pool, and the losses and gradient terms are summed in clip order, the order
one backward of the batch loss adds them, so a step is bit-identical on any
number of CPUs. Neither loop builds a scene grid for an ``actor_only``
model. Phase 2 freezes the model and fits only the aggregation weights on
long clips. All
randomness (batch order, augmentation offsets, dropout masks) derives
from the run seed through named sub-streams indexed by epoch and step,
so a run is a pure function of its configuration and resuming from a
checkpoint reproduces the uninterrupted trajectory bit for bit.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import model as mdl
from .checkpoint import load_checkpoint, params_hash, save_checkpoint
from .errors import ConfigError, NanLossError, ValidationError
from .evaluation import Detection, EvalReport, GroundTruthBox, evaluate
from .longterm import (
    AggregationWeights,
    WindowedScores,
    WindowingConfig,
    aggregate,
    map_on_pool,
    run_windowed,
    run_windowed_clips,
    score_pass,
    stack_runs,
    train_aggregation,
)
from .matching import LossConfig, matched_targets, set_loss
from .model import ModelConfig, ModelParams, init_params
from .rng import RngStream
from .synthdata import (
    SCENE_DIM,
    ClipSample,
    Dataset,
    ScenarioConfig,
    annotation_records,
    category_map,
    class_name,
    ground_truth_set,
    keyframe_grid,
    sample_proposals,
    temporal_augment,
)

log = logging.getLogger(__name__)

CLIP_NORM = 1.0  # global gradient-norm ceiling of each phase-1 step
AUGMENT_RANGE = 1.5  # seconds of uniform temporal jitter per phase-1 sample


@dataclass(frozen=True)
class OptimizerConfig:
    """Phase-1 AdamW schedule and the phase-2 fit length.

    The published schedule (lr 1e-4, 8 epochs, batch 16, decay at epoch
    6, weight decay 1e-4) targets large pretrained backbones; the
    defaults here are the faster desk-scale schedule. AdamW's betas and
    eps are its own defaults, gradient clipping and temporal
    augmentation are ``CLIP_NORM`` and ``AUGMENT_RANGE``, and the
    phase-2 fit keeps ``train_aggregation``'s learning rate.
    """

    lr: float = 1e-3
    weight_decay: float = 1e-4
    epochs: int = 30
    batch_size: int = 4
    decay_epoch: int = 24
    decay_factor: float = 0.1
    aggregation_epochs: int = 150

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if self.decay_factor <= 0:
            raise ConfigError(f"decay_factor must be positive, got {self.decay_factor}")
        if self.aggregation_epochs < 0:
            raise ConfigError(f"aggregation_epochs must be nonnegative, "
                              f"got {self.aggregation_epochs}")


class AdamW:
    """Decoupled weight decay; decay skips 1-D parameters (biases, norms)."""

    def __init__(self, params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {p.name: np.zeros(p.shape) for p in self.params}
        self.v = {p.name: np.zeros(p.shape) for p in self.params}

    def step(self, lr_scale: float = 1.0):
        self.t += 1
        lr = self.lr * lr_scale
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p in self.params:
            g = p.grad
            m = self.m[p.name]
            v = self.v[p.name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            new = p.value.data - lr * update
            if self.weight_decay and p.value.data.ndim > 1:
                new = new - lr * self.weight_decay * p.value.data
            p.assign(new)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name in self.m:
            out[f"m.{name}"] = self.m[name]
            out[f"v.{name}"] = self.v[name]
        out["t"] = np.array([float(self.t)])
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]):
        for name in self.m:
            self.m[name] = np.array(arrays[f"m.{name}"])
            self.v[name] = np.array(arrays[f"v.{name}"])
        self.t = int(arrays["t"][0])


def clip_gradients(params, max_norm: float) -> float:
    total = 0.0
    for p in params:
        g = p.value.grad
        if g is not None:
            total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.value.grad is not None:
                p.value.grad *= scale
    return norm


@dataclass
class TrainState:
    params: ModelParams
    optimizer: AdamW
    epoch: int = 0
    step: int = 0
    best_map: float = -1.0
    aggregation: AggregationWeights | None = None
    history: list = field(default_factory=list)  # (epoch, mean loss, mAP)


def evaluate_short_term(
    params: ModelParams,
    cfg: ModelConfig,
    clips: list[ClipSample],
    scenario: ScenarioConfig,
    windowing: WindowingConfig,
    proposal_mode: str = "topk",
    proposal_tau: float = 0.0,
) -> EvalReport:
    """Keyframe AP; proposals are sampled here in clip order, then one ``score_pass`` runs
    every clip's keyframe forward, its grid built just ahead of it."""
    blind = cfg.variant == "actor_only"
    proposals = [sample_proposals(clip.detections, scenario.proposal_count, mode=proposal_mode,
                                  tau=proposal_tau, actor_dim=scenario.actor_dim)
                 for clip in clips]
    scores = score_pass(params, cfg, len(clips), (
        (p, None if blind else keyframe_grid(clip, windowing.t_before, windowing.t_after))
        for p, clip in zip(proposals, clips)))
    return _evaluate_scored(list(zip(clips, proposals, scores)), scenario)


def _clip_loss_and_gradients(params: ModelParams, cfg: ModelConfig, loss_cfg: LossConfig,
                             clips: list[ClipSample], grids, targets, dropout_rngs, seed):
    """A stack of clips' set losses on their ``matched_targets`` pairs, on one tape, and
    ``ad.leaf_gradients`` of their sum from ``seed``: every clip's backward starts at ``seed``."""
    logits = mdl.forward_actions(params, cfg, [c.proposals for c in clips], grids,
                                 dropout_rngs, training=True)
    sigmas, labels = zip(*targets)
    losses = set_loss(logits, sigmas, np.stack(labels), loss_cfg)
    return losses.data, ad.leaf_gradients(ad.reduce_sum(losses), seed)


def ground_truth_boxes(clip: ClipSample) -> list[GroundTruthBox]:
    out = []
    for clip_id, _t, box, k in annotation_records([clip]):
        out.append(GroundTruthBox(clip_id, box, k))
    return out


def evaluate_longterm(
    windowed: list[WindowedScores],
    scenario: ScenarioConfig,
    weights: AggregationWeights | None = None,
    strategy: str = "weighted",
    topk: int = 1,
) -> EvalReport:
    """Evaluate fused long-term scores against the clips' ground truth."""
    return _evaluate_scored(
        [(ws.clip, ws.clip.proposals, aggregate(ws, weights, strategy, topk))
         for ws in windowed],
        scenario,
    )


def _evaluate_scored(scored, scenario: ScenarioConfig) -> EvalReport:
    """Frame AP of ``(clip, proposals, (num_classes, K) action scores)`` triples.

    A detection ranks by person score times action score. Detections are
    listed proposal-major, then by class, which fixes AP tie-breaking.
    """
    dets: list[Detection] = []
    gts: list[GroundTruthBox] = []
    for clip, proposals, action_scores in scored:
        person = np.array([p.person_score for p in proposals])
        ranked = person[None, :] * action_scores
        for i, prop in enumerate(proposals):
            for k in range(ranked.shape[0]):
                dets.append(Detection(clip.clip_id, prop.box, k, float(ranked[k, i])))
        gts.extend(ground_truth_boxes(clip))
    n = scenario.num_classes
    return evaluate(dets, gts, category_map(n), {k: class_name(k, n) for k in range(n)})


def train_short_term(
    dataset: Dataset,
    model_cfg: ModelConfig,
    loss_cfg: LossConfig,
    opt_cfg: OptimizerConfig,
    rng: RngStream,
    windowing: WindowingConfig | None = None,
    out_dir=None,
    state: TrainState | None = None,
    log_lines: list | None = None,
) -> TrainState:
    """Phase-1 loop; returns the final state (resumable via ``state``)."""
    scenario = dataset.cfg
    windowing = windowing or WindowingConfig.short_term()
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    if state is None:
        params = init_params(model_cfg, scenario.actor_dim, SCENE_DIM, rng.child_named("init"))
        opt = AdamW(params.parameters(), lr=opt_cfg.lr, weight_decay=opt_cfg.weight_decay)
        state = TrainState(params, opt)
    params, opt = state.params, state.optimizer
    trainable = params.parameters()

    clips = dataset.train
    targets = [matched_targets(ground_truth_set(c, len(c.proposals)), c.proposals, loss_cfg)
               for c in clips]
    blind = model_cfg.variant == "actor_only"
    for epoch in range(state.epoch, opt_cfg.epochs):
        lr_scale = opt_cfg.decay_factor if epoch >= opt_cfg.decay_epoch else 1.0
        order = rng.child_named("order").child(epoch).generator().permutation(len(clips))
        epoch_losses = []
        for b0 in range(0, len(order), opt_cfg.batch_size):
            batch = order[b0 : b0 + opt_cfg.batch_size]  # clip indices
            clip_weight = np.ones(()) * (1.0 / len(batch))  # d(batch-mean loss)/d(clip loss)
            grids, streams = [], []
            for j, i in enumerate(batch):
                aug = temporal_augment(
                    clips[i], AUGMENT_RANGE,
                    rng.child_named("aug").child(epoch, state.step, j),
                )
                grids.append(None if blind
                             else keyframe_grid(aug, windowing.t_before, windowing.t_after))
                streams.append(rng.child_named("dropout").child(epoch, state.step, j))
            jobs = [(params, model_cfg, loss_cfg, [clips[i] for i in batch[part]],
                     None if blind else np.stack([grids[j] for j in part]),
                     [targets[i] for i in batch[part]], [streams[j] for j in part], clip_weight)
                    for part in stack_runs(len(batch))]
            results = map_on_pool(_clip_loss_and_gradients, jobs)
            # clip-order sums, so neither the loss nor a gradient depends on thread timing
            total = functools.reduce(np.add, [loss for r in results for loss in r[0]])
            loss_value = (total * (1.0 / len(batch))).item()
            if not np.isfinite(loss_value):
                raise NanLossError(
                    f"non-finite loss at epoch {epoch} step {state.step}",
                    diagnostics={
                        "epoch": epoch,
                        "step": state.step,
                        "clip_ids": [clips[i].clip_id for i in batch],
                        "seed": rng.seed,
                    },
                )
            for p in trainable:
                p.zero_grad()
            ad.accumulate([r[1] for r in results])
            clip_gradients(trainable, CLIP_NORM)
            opt.step(lr_scale)
            epoch_losses.append(loss_value)
            if log_lines is not None:
                log_lines.append(
                    f"step {state.step} loss {loss_value:.6f} lr {opt_cfg.lr * lr_scale:g}"
                )
            state.step += 1
        report = evaluate_short_term(params, model_cfg, dataset.eval, scenario, windowing)
        mean_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
        state.history.append((epoch, mean_loss, report.mean_ap))
        state.epoch = epoch + 1
        line = f"epoch {epoch} loss {mean_loss:.6f} map {report.mean_ap:.4f}"
        log.info(line)
        if log_lines is not None:
            log_lines.append(line)
        if out_dir is not None:
            save_train_state(f"{out_dir}/last.ckpt", state, model_cfg, scenario)
            if report.mean_ap > state.best_map:
                state.best_map = report.mean_ap
                save_train_state(f"{out_dir}/best.ckpt", state, model_cfg, scenario)
        else:
            state.best_map = max(state.best_map, report.mean_ap)
    return state


def train_long_term(
    state: TrainState,
    dataset: Dataset,
    model_cfg: ModelConfig,
    loss_cfg: LossConfig,
    opt_cfg: OptimizerConfig,
    windowing: WindowingConfig,
) -> tuple[AggregationWeights, dict]:
    """Phase 2: fit aggregation weights with the relation model frozen.

    Returns the weights plus a before/after mean-AP comparison computed
    on the dataset's held-out split.
    """
    params = state.params
    scenario = dataset.cfg
    # train_aggregation raises if the frozen parameters drift
    weights = train_aggregation(
        params, model_cfg, dataset.train, windowing, loss_cfg,
        epochs=opt_cfg.aggregation_epochs,
    )
    windowed = run_windowed_clips(params, model_cfg, dataset.eval, windowing)
    short = evaluate_longterm(
        windowed, scenario, AggregationWeights.initial(windowing, model_cfg.num_classes)
    )
    fused = evaluate_longterm(windowed, scenario, weights)
    state.aggregation = weights
    report = {
        "short_term_map": short.mean_ap,
        "long_term_map": fused.mean_ap,
        "params_hash": params_hash({p.name: p.value.data for p in params.parameters()}),
    }
    log.info("long-term map %.4f (short-term %.4f)", fused.mean_ap, short.mean_ap)
    return weights, report


# ---------------------------------------------------------------------------
# state persistence


def save_train_state(path, state: TrainState, model_cfg: ModelConfig,
                     scenario: ScenarioConfig):
    sections = {
        "model": {p.name: p.value.data for p in state.params.parameters()},
        "optimizer": state.optimizer.state_arrays(),
        "progress": {
            "epoch": np.array([float(state.epoch)]),
            "step": np.array([float(state.step)]),
            "best_map": np.array([state.best_map]),
        },
    }
    meta = {"model": asdict(model_cfg), "scenario": asdict(scenario)}
    if state.aggregation is not None:
        sections["aggregation"] = {"weights": state.aggregation.weights}
        meta["windowing"] = asdict(state.aggregation.windowing)
    save_checkpoint(path, sections, meta)


def load_train_state(path, opt_cfg: OptimizerConfig) -> tuple[TrainState, ModelConfig, ScenarioConfig]:
    sections, meta = load_checkpoint(path)
    model_cfg = _cfg_from_meta(ModelConfig, meta, "model", path)
    scenario = _cfg_from_meta(ScenarioConfig, meta, "scenario", path)
    params = init_params(model_cfg, scenario.actor_dim, SCENE_DIM, RngStream(0))
    model = _section(path, sections, "model", {p.name: p.value.data for p in params.parameters()})
    for p in params.parameters():
        p.assign(model[p.name])
    opt = AdamW(params.parameters(), lr=opt_cfg.lr, weight_decay=opt_cfg.weight_decay)
    optimizer = _section(path, sections, "optimizer", opt.state_arrays())
    progress = _section(path, sections, "progress",
                        {k: np.zeros(1) for k in ("epoch", "step", "best_map")})
    epoch, step, best_map = (float(progress[k][0]) for k in ("epoch", "step", "best_map"))
    t = float(optimizer["t"][0])
    for key, value in (("optimizer/t", t), ("progress/epoch", epoch), ("progress/step", step)):
        if not (value >= 0 and value.is_integer()):
            raise ValidationError(f"checkpoint {path}: {key} is {value}, not a count")
    opt.load_state_arrays(optimizer)
    state = TrainState(params, opt, epoch=int(epoch), step=int(step), best_map=best_map)
    if "aggregation" in sections:
        if "windowing" not in meta:
            raise ValidationError(f"checkpoint {path}: its fusion weights were saved before they "
                                  "carried their windowing metadata; refit them with "
                                  "`train --phase long` on the phase-1 checkpoint")
        windowing = _cfg_from_meta(WindowingConfig, meta, "windowing", path)
        agg = _section(path, sections, "aggregation",
                       {"weights": np.zeros((windowing.num_windows, model_cfg.num_classes))})
        state.aggregation = AggregationWeights(windowing, agg["weights"])
    return state, model_cfg, scenario


def _section(path, sections: dict, name: str, like: dict[str, np.ndarray]) -> dict:
    """``sections[name]``, refused unless it holds exactly ``like``'s names and shapes,
    every value finite."""
    arrays = sections.get(name)
    if arrays is None:
        raise ValidationError(f"checkpoint {path} has no {name} section")
    unknown, missing = sorted(set(arrays) - set(like)), sorted(set(like) - set(arrays))
    if unknown or missing:
        raise ValidationError(f"checkpoint {path}: {name} section has unknown arrays {unknown} "
                              f"and missing arrays {missing}")
    for key, ref in like.items():
        if arrays[key].shape != ref.shape:
            raise ValidationError(f"checkpoint {path}: {name}/{key} has shape "
                                  f"{arrays[key].shape}, expected {ref.shape}")
        if not np.isfinite(arrays[key]).all():
            raise ValidationError(f"checkpoint {path}: {name}/{key} holds a non-finite value")
    return arrays


def _cfg_from_meta(cls, meta: dict, section: str, path):
    """Rebuild a config from checkpoint metadata whose keys are exactly the class's fields."""
    from .config import decode_section

    names = {f.name for f in fields(cls)}
    data = meta.get(section, {})
    if not isinstance(data, dict):
        raise ValidationError(f"checkpoint {path}: {section} metadata is not an object")
    unknown, missing = sorted(set(data) - names), sorted(names - set(data))
    if unknown or missing:
        raise ValidationError(f"checkpoint {path}: {section} metadata has unknown keys "
                              f"{unknown} and missing keys {missing}")
    return decode_section(cls(), data, f"checkpoint {path}", f"{section}.")
