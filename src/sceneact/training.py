"""Optimization loops tying the pipeline together.

Phase 1 trains the relation model on short keyframe windows with
temporal augmentation: embed, relate, classify, match, set loss,
backward, clipped AdamW step. Phase 2 freezes the model and fits only
the aggregation weights on long clips. All randomness (batch order,
augmentation offsets, dropout masks) derives from the run seed through
named sub-streams indexed by epoch and step, so a run is a pure function
of its configuration and resuming from a checkpoint reproduces the
uninterrupted trajectory bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import model as mdl
from .checkpoint import load_checkpoint, params_hash, save_checkpoint
from .errors import ConfigError, NanLossError
from .evaluation import Detection, EvalReport, GroundTruthBox, evaluate
from .longterm import (
    AggregationWeights,
    WindowedScores,
    WindowingConfig,
    aggregate,
    run_windowed,
    train_aggregation,
)
from .matching import LossConfig, match, set_loss
from .model import ModelConfig, ModelParams, init_params
from .rng import RngStream
from .synthdata import (
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


@dataclass(frozen=True)
class OptimizerConfig:
    """Decoupled-weight-decay adaptive-gradient settings.

    The published schedule (lr 1e-4, 8 epochs, batch 16, decay at epoch
    6, weight decay 1e-4) targets large pretrained backbones; the
    defaults here are the faster desk-scale schedule.
    """

    lr: float = 1e-3
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 30
    batch_size: int = 4
    decay_epoch: int = 24
    decay_factor: float = 0.1
    clip_norm: float = 1.0
    augment_range: float = 1.5
    aggregation_lr: float = 1e-2
    aggregation_epochs: int = 150

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")

    @classmethod
    def paper_schedule(cls) -> "OptimizerConfig":
        return cls(lr=1e-4, epochs=8, batch_size=16, decay_epoch=6)


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


def predict_clip(
    params: ModelParams,
    cfg: ModelConfig,
    clip: ClipSample,
    windowing: WindowingConfig,
    grid_t: int,
    use_scene: bool = True,
    proposals=None,
) -> mdl.PredictionSet:
    """Short-term inference on the keyframe window."""
    proposals = clip.proposals if proposals is None else proposals
    with ad.no_grad():
        grid = (
            keyframe_grid(clip, windowing.t_before, windowing.t_after, grid_t)
            if use_scene
            else None
        )
        logits = mdl.forward_actions(params, cfg, proposals, grid, RngStream(0), training=False)
    return mdl.predictions_from_logits(proposals, logits.data)


def evaluate_short_term(
    params: ModelParams,
    cfg: ModelConfig,
    clips: list[ClipSample],
    scenario: ScenarioConfig,
    windowing: WindowingConfig,
    use_scene: bool = True,
    proposal_mode: str = "topk",
    proposal_tau: float = 0.0,
) -> EvalReport:
    scored = []
    for clip in clips:
        proposals = sample_proposals(
            clip.detections, scenario.proposal_count, mode=proposal_mode,
            tau=proposal_tau, actor_dim=scenario.actor_dim,
        )
        preds = predict_clip(params, cfg, clip, windowing, scenario.grid_t,
                             use_scene=use_scene, proposals=proposals)
        scored.append((clip, proposals, preds.action_scores))
    return _evaluate_scored(scored, scenario)


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
    use_scene: bool = True,
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
        params = init_params(model_cfg, scenario.actor_dim, scenario.scene_dim,
                             rng.child_named("init"))
        opt = AdamW([p for p in params.parameters()], lr=opt_cfg.lr,
                    beta1=opt_cfg.beta1, beta2=opt_cfg.beta2, eps=opt_cfg.eps,
                    weight_decay=opt_cfg.weight_decay)
        state = TrainState(params, opt)
    params, opt = state.params, state.optimizer
    trainable = params.parameters()

    clips = dataset.train
    for epoch in range(state.epoch, opt_cfg.epochs):
        lr_scale = opt_cfg.decay_factor if epoch >= opt_cfg.decay_epoch else 1.0
        order = rng.child_named("order").child(epoch).generator().permutation(len(clips))
        epoch_losses = []
        for b0 in range(0, len(order), opt_cfg.batch_size):
            batch_ids = order[b0 : b0 + opt_cfg.batch_size]
            batch = [clips[int(i)] for i in batch_ids]
            for p in trainable:
                p.zero_grad()
            total = None
            for j, clip in enumerate(batch):
                aug = temporal_augment(
                    clip, opt_cfg.augment_range,
                    rng.child_named("aug").child(epoch, state.step, j),
                )
                grid = (
                    keyframe_grid(aug, windowing.t_before, windowing.t_after, scenario.grid_t)
                    if use_scene
                    else None
                )
                logits = mdl.forward_actions(
                    params, model_cfg, clip.proposals, grid,
                    rng.child_named("dropout").child(epoch, state.step, j),
                    training=True,
                )
                preds = mdl.predictions_from_logits(clip.proposals, logits.data)
                gts = ground_truth_set(clip, len(clip.proposals))
                sigma = match(gts, preds, loss_cfg).sigma
                loss = set_loss(gts, logits, sigma, loss_cfg)
                total = loss if total is None else ad.add(total, loss)
            total = ad.scale(total, 1.0 / len(batch))
            loss_value = total.item()
            if not np.isfinite(loss_value):
                raise NanLossError(
                    f"non-finite loss at epoch {epoch} step {state.step}",
                    diagnostics={
                        "epoch": epoch,
                        "step": state.step,
                        "clip_ids": [c.clip_id for c in batch],
                        "seed": rng.seed,
                    },
                )
            ad.backward(total)
            clip_gradients(trainable, opt_cfg.clip_norm)
            opt.step(lr_scale)
            epoch_losses.append(loss_value)
            if log_lines is not None:
                log_lines.append(
                    f"step {state.step} loss {loss_value:.6f} lr {opt_cfg.lr * lr_scale:g}"
                )
            state.step += 1
        report = evaluate_short_term(
            params, model_cfg, dataset.eval, scenario, windowing, use_scene=use_scene
        )
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
        params, model_cfg, dataset.train, windowing, scenario.grid_t, loss_cfg,
        lr=opt_cfg.aggregation_lr, epochs=opt_cfg.aggregation_epochs,
    )
    windowed = [
        run_windowed(params, model_cfg, clip, windowing, scenario.grid_t)
        for clip in dataset.eval
    ]
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
    if state.aggregation is not None:
        sections["aggregation"] = {
            "weights": state.aggregation.weights,
            "offsets": np.array(state.aggregation.offsets, dtype=np.float64),
        }
    meta = {
        "model": _cfg_dict(model_cfg),
        "scenario": _cfg_dict(scenario),
    }
    save_checkpoint(path, sections, meta)


def load_train_state(path, opt_cfg: OptimizerConfig) -> tuple[TrainState, ModelConfig, ScenarioConfig]:
    sections, meta = load_checkpoint(path)
    model_cfg = ModelConfig(**{k: _tup(v) for k, v in meta["model"].items()})
    scenario = ScenarioConfig(**{k: _tup(v) for k, v in meta["scenario"].items()})
    params = init_params(model_cfg, scenario.actor_dim, scenario.scene_dim, RngStream(0))
    for p in params.parameters():
        p.assign(sections["model"][p.name])
    opt = AdamW(params.parameters(), lr=opt_cfg.lr, beta1=opt_cfg.beta1,
                beta2=opt_cfg.beta2, eps=opt_cfg.eps, weight_decay=opt_cfg.weight_decay)
    opt.load_state_arrays(sections["optimizer"])
    state = TrainState(
        params,
        opt,
        epoch=int(sections["progress"]["epoch"][0]),
        step=int(sections["progress"]["step"][0]),
        best_map=float(sections["progress"]["best_map"][0]),
    )
    if "aggregation" in sections:
        offsets = tuple(int(o) for o in sections["aggregation"]["offsets"])
        state.aggregation = AggregationWeights(offsets, sections["aggregation"]["weights"])
    return state, model_cfg, scenario


def _cfg_dict(cfg) -> dict:
    out = {}
    for name, value in vars(cfg).items():
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


def _tup(v):
    return tuple(v) if isinstance(v, list) else v
