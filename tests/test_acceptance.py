"""Acceptance criteria for the trained phase-1 pipeline on the default config.

Trains the default benchmark once (the session-scoped ``default_run``
fixture, about 4-5 minutes on two CPU cores). Run with ``-s`` to see one
line per criterion.
"""

import numpy as np
import pytest

pytestmark = pytest.mark.slow

MAP_GATE = 0.85


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
