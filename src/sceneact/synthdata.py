"""Synthetic actor-world clips standing in for real detector and video backbones.

Each clip places a few ground-truth actors in the unit square and gives
every actor one body-pose action, optionally an object-interaction
action, and, when two actors stand close enough, a shared
pair-interaction action. Every action class owns a fixed random
orthonormal signature vector. A per-second feature timeline carries
Gaussian noise everywhere plus the signature of each active action in
one grid cell: the actor's own center cell for pose and object classes,
the midpoint cell between the two participants for pair classes. Actor
appearance features are class-agnostic by construction, so action
identity is only recoverable from the scene timeline.

The synthetic detector returns jittered ground-truth boxes with
calibrated confidences, drops actors at the false-negative rate and
fills free proposal slots with low-confidence false positives.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .boxes import BoundingBox, sanitize_box
from .errors import ConfigError, ValidationError
from .matching import GroundTruthSet
from .rng import RngStream

log = logging.getLogger(__name__)

CATEGORIES = ("pose", "person-person", "person-object")

DUMMY_BOX = BoundingBox(0.495, 0.495, 0.505, 0.505)

# Fixed shape of the synthetic world, shared by every scenario.
CONFIDENCE_FLOOR = 0.75  # lower bound of genuine-detection confidence
MOMENTARY_SPAN = (0.6, 1.2)  # range of an action's seconds on each side of the keyframe
SUSTAINED_SPAN = (2.0, 7.0)
OBJECT_PROBABILITY = 0.7
PAIR_PROBABILITY = 0.7  # chance a two-actor clip forms a close pair
PAIR_DISTANCE_MAX = 0.32
MIN_SEPARATION = 0.25
BOX_SIZE_RANGE = (0.10, 0.20)
APPEARANCE_PROTOTYPES = 8
TIMELINE_EXTENT = 8  # whole seconds covered on each side of the keyframe
GRID_H, GRID_W, GRID_T = 8, 8, 4  # scene grid rows, columns and time samples per window
SCENE_DIM = 32  # scene token length C'; bounds num_classes (one orthonormal signature each)


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the synthetic world; defaults give the standard benchmark.

    Detector quality, scene signal strength and the action mix are
    settable. The world's fixed shape (action spans, pair and object
    odds, actor spacing, box sizes, appearance prototypes, timeline
    extent, scene grid shape, scene token length, detector confidence
    floor) is set by the module constants above.
    """

    seed: int = 0
    num_actors: tuple[int, int] = (1, 2)
    num_classes: int = 12
    actor_dim: int = 32  # detector feature length C
    proposal_count: int = 10  # K
    box_jitter: float = 0.003
    false_positive_rate: float = 0.3
    false_negative_rate: float = 0.01
    signature_magnitude: float = 4.5
    scene_noise: float = 0.1
    momentary_fraction: float = 0.10
    train_clips: int = 200
    eval_clips: int = 50

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:  # RngStream keys on the seed's low 64 bits
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        for name in ("false_positive_rate", "false_negative_rate", "momentary_fraction"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        for name in ("num_classes", "actor_dim", "proposal_count"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.num_classes > SCENE_DIM:
            raise ConfigError(f"num_classes {self.num_classes} exceeds the scene token "
                              f"length {SCENE_DIM}, one orthonormal signature per class")
        if self.num_classes % len(CATEGORIES) != 0:
            raise ConfigError(
                f"num_classes must split evenly over {len(CATEGORIES)} categories"
            )
        n = self.num_actors
        if not (isinstance(n, tuple) and len(n) == 2 and all(type(x) is int for x in n)
                and 0 <= n[0] <= n[1]):
            raise ConfigError(f"num_actors must be two integers 0 <= low <= high, got {n}")
        if self.box_jitter < 0:
            raise ConfigError(f"box_jitter must be nonnegative, got {self.box_jitter}")


@dataclass(frozen=True)
class ActorProposal:
    box: BoundingBox
    person_score: float
    feature: np.ndarray  # (C,)


@dataclass(frozen=True)
class ActionInstance:
    class_id: int
    actors: tuple[int, ...]  # one actor, or the pair sharing the action
    cells: tuple[tuple[int, int], ...]  # (row, col) cells carrying the signature
    start: float  # seconds relative to the keyframe
    end: float
    momentary: bool


@dataclass
class ClipTruth:
    boxes: list[BoundingBox]
    labels: np.ndarray  # (num_actors, num_classes)
    appearances: np.ndarray  # (num_actors, C)
    instances: list[ActionInstance]


@dataclass
class ClipSample:
    clip_id: str
    keyframe_time: float
    detections: list[ActorProposal]  # raw synthetic detector output
    proposals: list[ActorProposal]  # densely sampled, padded to K
    timeline: np.ndarray  # (2 * TIMELINE_EXTENT + 1, H, W, C'), one slice per second
    truth: ClipTruth
    time_offset: float = 0.0  # set by temporal augmentation


def class_category(class_id: int, num_classes: int) -> str:
    per = num_classes // len(CATEGORIES)
    return CATEGORIES[min(class_id // per, len(CATEGORIES) - 1)]


def class_name(class_id: int, num_classes: int) -> str:
    per = num_classes // len(CATEGORIES)
    stem = {"pose": "pose", "person-person": "pair", "person-object": "object"}
    return f"{stem[class_category(class_id, num_classes)]}_{class_id % per}"


def category_map(num_classes: int) -> dict[int, str]:
    return {k: class_category(k, num_classes) for k in range(num_classes)}


@functools.lru_cache(maxsize=8)
def signature_bank(seed: int, num_classes: int) -> np.ndarray:
    """Fixed orthonormal signature per class, derived from the dataset seed."""
    gen = RngStream(seed).child_named("signatures").generator()
    raw = gen.standard_normal((SCENE_DIM, SCENE_DIM))
    q, _ = np.linalg.qr(raw)
    return q[:, :num_classes].T.copy()  # (num_classes, C')


def dummy_proposal(actor_dim: int) -> ActorProposal:
    return ActorProposal(DUMMY_BOX, 0.0, np.zeros(actor_dim))


def _round6(x: float) -> float:
    return round(float(x), 6)


def _rounded_box(*corners: float) -> BoundingBox:
    return BoundingBox(*(_round6(c) for c in sanitize_box(*corners).corners()))


def _sample_box(gen: np.random.Generator, center: tuple | None = None) -> BoundingBox:
    cx, cy = center or (gen.uniform(0.15, 0.85), gen.uniform(0.15, 0.85))
    w = gen.uniform(*BOX_SIZE_RANGE)
    h = gen.uniform(*BOX_SIZE_RANGE)
    return _rounded_box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


@functools.lru_cache(maxsize=8)
def appearance_bank(seed: int, actor_dim: int) -> np.ndarray:
    """Shared appearance prototypes; class-independent by construction."""
    gen = RngStream(seed).child_named("appearances").generator()
    bank = gen.standard_normal((APPEARANCE_PROTOTYPES, actor_dim))
    return bank / np.linalg.norm(bank, axis=1, keepdims=True)


def _cell_of(x: float, y: float) -> tuple[int, int]:
    row = min(int(y * GRID_H), GRID_H - 1)
    col = min(int(x * GRID_W), GRID_W - 1)
    return row, col


def _cheb(a: tuple[int, int], b: tuple[int, int]) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _place_actors(cfg: ScenarioConfig, gen: np.random.Generator):
    """Sample actor boxes with grid-aware spacing.

    Lone actors occupy center cells at Chebyshev distance >= 2 from every
    other actor, so one actor's immediate cell neighborhood never contains
    another actor's signatures. A close pair is placed so the two centers
    still sit >= 2 cells apart while the midpoint cell touches both
    neighborhoods, which is what makes the shared signature readable by
    both participants and by nobody else.
    """
    n_actors = int(gen.integers(cfg.num_actors[0], cfg.num_actors[1] + 1))
    want_pair = n_actors >= 2 and gen.random() < PAIR_PROBABILITY

    boxes: list[BoundingBox] = []
    pairs: list[tuple[int, int]] = []

    def cells_ok(center, others):
        cell = _cell_of(*center)
        return all(_cheb(cell, _cell_of(*o.center)) >= 2 for o in others)

    if want_pair:
        for _attempt in range(500):
            a = _sample_box(gen)
            d = gen.uniform(MIN_SEPARATION, PAIR_DISTANCE_MAX)
            angle = gen.uniform(0.0, 2.0 * np.pi)
            cx = a.center[0] + d * np.cos(angle)
            cy = a.center[1] + d * np.sin(angle)
            if not (0.15 <= cx <= 0.85 and 0.15 <= cy <= 0.85):
                continue
            b = _sample_box(gen, (cx, cy))
            ca, cb = _cell_of(*a.center), _cell_of(*b.center)
            mid = _cell_of(0.5 * (a.center[0] + b.center[0]),
                           0.5 * (a.center[1] + b.center[1]))
            if _cheb(ca, cb) >= 2 and _cheb(mid, ca) <= 1 and _cheb(mid, cb) <= 1:
                boxes.extend([a, b])
                pairs.append((0, 1))
                break
        n_actors = max(n_actors, len(boxes))

    while len(boxes) < n_actors:
        for _attempt in range(200):
            box = _sample_box(gen)
            if cells_ok(box.center, boxes) and all(
                math.dist(box.center, b.center) >= MIN_SEPARATION for b in boxes
            ):
                boxes.append(box)
                break
        else:
            break  # crowded draw; settle for fewer actors
    return boxes, pairs


def _interval(cfg: ScenarioConfig, gen: np.random.Generator) -> tuple[float, float, bool]:
    momentary = gen.random() < cfg.momentary_fraction
    lo, hi = MOMENTARY_SPAN if momentary else SUSTAINED_SPAN
    before = gen.uniform(lo, hi)
    after = gen.uniform(lo, hi)
    return -before, after, momentary


def generate_clip(cfg: ScenarioConfig, rng: RngStream, clip_id: str = "clip",
                  keyframe_time: float = 0.0) -> ClipSample:
    """Deterministically build one clip from (config, stream)."""
    g_world = rng.child(0).generator()
    g_scene = rng.child(1).generator()
    g_det = rng.child(2).generator()
    signatures = signature_bank(cfg.seed, cfg.num_classes)
    per = cfg.num_classes // len(CATEGORIES)

    boxes, pairs = _place_actors(cfg, g_world)
    n_actors = len(boxes)

    labels = np.zeros((n_actors, cfg.num_classes))
    picks = g_world.integers(0, APPEARANCE_PROTOTYPES, size=n_actors)
    g_world.standard_normal((n_actors, cfg.actor_dim))  # unused; keeps later world draws in place
    appearances = appearance_bank(cfg.seed, cfg.actor_dim)[picks]
    appearances /= np.linalg.norm(appearances, axis=1, keepdims=True)
    instances: list[ActionInstance] = []

    def add_instance(class_id, actors, cells):
        start, end, momentary = _interval(cfg, g_world)
        instances.append(
            ActionInstance(class_id, tuple(actors), cells, start, end, momentary)
        )
        for a in actors:
            labels[a, class_id] = 1.0

    for i, box in enumerate(boxes):
        center_cell = _cell_of(*box.center)
        add_instance(int(g_world.integers(0, per)), (i,), (center_cell,))
        if g_world.random() < OBJECT_PROBABILITY:
            add_instance(int(g_world.integers(2 * per, 3 * per)), (i,), (center_cell,))
    for i, j in pairs:
        ci, cj = boxes[i].center, boxes[j].center
        mid_cell = _cell_of(0.5 * (ci[0] + cj[0]), 0.5 * (ci[1] + cj[1]))
        add_instance(int(g_world.integers(per, 2 * per)), (i, j), (mid_cell,))

    offsets = np.arange(-TIMELINE_EXTENT, TIMELINE_EXTENT + 1, dtype=np.float64)
    timeline = g_scene.standard_normal((len(offsets), GRID_H, GRID_W, SCENE_DIM))
    timeline *= cfg.scene_noise
    for inst in instances:
        active = (offsets >= inst.start) & (offsets <= inst.end)
        for row, col in inst.cells:
            timeline[active, row, col] += cfg.signature_magnitude * signatures[inst.class_id]

    detections: list[ActorProposal] = []
    for i, box in enumerate(boxes):
        if g_det.random() < cfg.false_negative_rate:
            continue
        jitter = g_det.normal(0.0, cfg.box_jitter, size=4)
        det_box = _rounded_box(*(c + j for c, j in zip(box.corners(), jitter)))
        score = g_det.uniform(CONFIDENCE_FLOOR, 0.98)
        detections.append(ActorProposal(det_box, _round6(score), appearances[i].copy()))
    free = max(0, cfg.proposal_count - len(detections))
    for _ in range(free):
        if g_det.random() < cfg.false_positive_rate:
            fp_box = _sample_box(g_det)
            feature = g_det.standard_normal(cfg.actor_dim)
            feature /= np.linalg.norm(feature)
            detections.append(ActorProposal(fp_box, _round6(g_det.uniform(0.05, 0.5)), feature))

    proposals = sample_proposals(detections, cfg.proposal_count, mode="topk",
                                 actor_dim=cfg.actor_dim)
    truth = ClipTruth(boxes, labels, appearances, instances)
    return ClipSample(clip_id, _round6(keyframe_time), detections, proposals, timeline, truth)


def sample_proposals(
    detections: list[ActorProposal],
    k: int,
    actor_dim: int,
    mode: str = "topk",
    tau: float = 0.0,
) -> list[ActorProposal]:
    """Densify detections to exactly k proposals.

    ``topk`` keeps the k highest-confidence detections regardless of any
    threshold; ``threshold`` first drops detections below tau. Free slots
    are padded with zero-feature, zero-confidence dummies at the image
    center.
    """
    if k <= 0:
        raise ConfigError(f"proposal count must be positive, got {k}")
    if mode not in ("topk", "threshold"):
        raise ConfigError(f"unknown sampling mode {mode!r}")
    if not detections:
        log.info("no detections at all; emitting %d dummy proposals", k)
    kept = list(detections)
    if mode == "threshold":
        kept = [d for d in kept if d.person_score >= tau]
    order = sorted(range(len(kept)), key=lambda i: (-kept[i].person_score, i))
    kept = [kept[i] for i in order[:k]]
    while len(kept) < k:
        kept.append(dummy_proposal(actor_dim))
    return kept


def ground_truth_set(clip: ClipSample, k: int) -> GroundTruthSet:
    return GroundTruthSet.build(clip.truth.boxes, clip.truth.labels, k)


# ---------------------------------------------------------------------------
# windows over the timeline


def window_grid(clip: ClipSample, interval: tuple[float, float]) -> np.ndarray:
    """Scene tokens for an absolute time interval: (SCENE_DIM, GRID_T * GRID_H * GRID_W).

    Sample times are the ``GRID_T`` sub-interval midpoints, each snapped to
    the nearest stored per-second slice; times outside the timeline's
    ``TIMELINE_EXTENT`` seconds on either side of the keyframe are clamped
    to its bounds (with a log note). Tokens are t-major, then row, then
    column: sample t, cell (row, col) is column ``(t * GRID_H + row) * GRID_W + col``.
    """
    start, stop = interval
    rel_times = [
        start - clip.keyframe_time + (q + 0.5) * (stop - start) / GRID_T
        for q in range(GRID_T)
    ]
    slices = []
    clamped = False
    for rt in rel_times:
        snapped = round(rt + clip.time_offset)
        if abs(snapped) > TIMELINE_EXTENT:
            clamped = True
            snapped = min(max(snapped, -TIMELINE_EXTENT), TIMELINE_EXTENT)
        slices.append(clip.timeline[snapped + TIMELINE_EXTENT])
    if clamped:
        log.info("clip %s: window %s clamped to timeline bounds", clip.clip_id, interval)
    return np.stack(slices).reshape(GRID_T * GRID_H * GRID_W, -1).T  # (T, H, W, C') -> (C', N)


def keyframe_grid(clip: ClipSample, t_before: float, t_after: float) -> np.ndarray:
    t = clip.keyframe_time
    return window_grid(clip, (t - t_before, t + t_after))


def temporal_augment(clip: ClipSample, delta_range: float, rng: RngStream) -> ClipSample:
    """Shift the clip fed to the model by a uniform offset; truth is unchanged."""
    if delta_range < 0:
        raise ConfigError(f"offset range must be nonnegative, got {delta_range}")
    if delta_range == 0.0:
        return clip
    if delta_range > TIMELINE_EXTENT:
        raise ConfigError(
            f"offset range {delta_range} exceeds the timeline's {TIMELINE_EXTENT} s of slack"
        )
    delta = rng.generator().uniform(-delta_range, delta_range)
    return replace(clip, time_offset=clip.time_offset + delta)


# ---------------------------------------------------------------------------
# dataset bundles


@dataclass
class Dataset:
    cfg: ScenarioConfig
    train: list[ClipSample]
    eval: list[ClipSample]

    def clip(self, clip_id: str) -> ClipSample:
        for c in self.train + self.eval:
            if c.clip_id == clip_id:
                return c
        raise ValidationError(f"unknown clip id {clip_id!r}")


def generate_dataset(cfg: ScenarioConfig, with_train: bool = True) -> Dataset:
    """Both splits, or the eval split alone and an empty train split.

    Each clip is a function of the seed and its own index, so the eval clips
    are the same either way.
    """
    root = RngStream(cfg.seed)
    train = [
        generate_clip(cfg, root.child(0, i), f"train_{i:04d}", 900.0 + i)
        for i in range(cfg.train_clips if with_train else 0)
    ]
    evals = [
        generate_clip(cfg, root.child(1, i), f"eval_{i:04d}", 9000.0 + i)
        for i in range(cfg.eval_clips)
    ]
    return Dataset(cfg, train, evals)


# ---------------------------------------------------------------------------
# ground-truth annotations (CSV)


def _format_row(clip_id, timestamp, box, class_id) -> list[str]:
    return [
        str(clip_id),
        f"{timestamp:.6f}",
        f"{box.x_lt:.6f}",
        f"{box.y_lt:.6f}",
        f"{box.x_rb:.6f}",
        f"{box.y_rb:.6f}",
        str(int(class_id)),
    ]


def write_annotations(path, records):
    """records: iterables of (clip_id, timestamp, BoundingBox, class_id)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for clip_id, timestamp, box, class_id in records:
            writer.writerow(_format_row(clip_id, timestamp, box, class_id))


def annotation_records(clips: list[ClipSample]):
    for clip in clips:
        for i, box in enumerate(clip.truth.boxes):
            for k in np.flatnonzero(clip.truth.labels[i]):
                yield clip.clip_id, clip.keyframe_time, box, int(k)
