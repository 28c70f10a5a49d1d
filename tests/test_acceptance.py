"""Acceptance criteria for the trained pipeline on the default config.

Trains the default benchmark once (the session-scoped ``default_run``
fixture, about 4-5 minutes on two CPU cores); the phase-2 criterion fits
the long-term weights on that model (about 70 s more), and the scene
criterion trains the actor_only variant on the same data (about 15 s more).
Run with ``-s`` to see one line per criterion.
"""

import dataclasses

import numpy as np
import pytest

from sceneact.rng import RngStream
from sceneact.training import train_long_term, train_short_term

pytestmark = pytest.mark.slow

MAP_GATE = 0.85
# unified minus actor_only best held-out mAP; seeds 1-8 of the default config gave 0.53-0.62
SCENE_GAIN_GATE = 0.4


def test_training_loss_finite_and_falls(default_run):
    cfg, _dataset, state = default_run
    losses = [loss for _epoch, loss, _map in state.history]
    print(f"\nloss over {len(losses)} epochs: first {losses[0]:.4f}, last {losses[-1]:.4f}")
    assert len(losses) == cfg.optimizer.epochs
    assert np.all(np.isfinite(losses))
    assert losses[-1] < losses[0]


def test_best_held_out_map(default_run):
    _cfg, _dataset, state = default_run
    last = state.history[-1][2]
    print(f"\nbest held-out mAP {state.best_map:.4f} (last epoch {last:.4f}), gate >= {MAP_GATE}")
    assert state.best_map >= MAP_GATE


def test_long_term_not_below_short_term(default_run):
    cfg, dataset, state = default_run
    weights, report = train_long_term(state, dataset, cfg.model, cfg.loss, cfg.optimizer,
                                      cfg.windowing)
    print(f"\nlong-term mAP {report['long_term_map']:.4f}, "
          f"short-term mAP {report['short_term_map']:.4f}, "
          f"min weight {weights.weights.min():.4f}")
    assert np.all(weights.weights >= 0.0)
    assert report["long_term_map"] >= report["short_term_map"]


def test_scene_context_beats_actor_only(default_run):
    """The paper's claim: actor features alone, without the scene, detect far worse."""
    cfg, dataset, state = default_run
    blind = train_short_term(dataset, dataclasses.replace(cfg.model, variant="actor_only"),
                             cfg.loss, cfg.optimizer, RngStream(cfg.seed),
                             windowing=cfg.windowing)
    gain = state.best_map - blind.best_map
    print(f"\nbest held-out mAP: unified {state.best_map:.4f}, actor_only {blind.best_map:.4f}, "
          f"gain {gain:.4f}, gate >= {SCENE_GAIN_GATE}")
    assert gain >= SCENE_GAIN_GATE
