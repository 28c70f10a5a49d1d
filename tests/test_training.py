import dataclasses

import numpy as np
import pytest

from sceneact import model as mdl
from sceneact.checkpoint import params_hash
from sceneact.longterm import WindowingConfig
from sceneact.matching import LossConfig
from sceneact.rng import RngStream
from sceneact.synthdata import ScenarioConfig, generate_dataset
from sceneact.training import (
    AdamW,
    OptimizerConfig,
    clip_gradients,
    evaluate_short_term,
    load_train_state,
    save_train_state,
    train_long_term,
    train_short_term,
)

SCENARIO = ScenarioConfig(seed=1200, train_clips=6, eval_clips=3)
MODEL = mdl.ModelConfig(embed_dim=8, layers=1, heads=2, ffn_dim=16, dropout=0.1,
                        num_classes=SCENARIO.num_classes)
WINDOW = WindowingConfig.short_term()


def opt_cfg(**kw):
    base = dict(epochs=2, batch_size=2, lr=1e-3)
    base.update(kw)
    return OptimizerConfig(**base)


def run(dataset, opt, seed=5, state=None, out_dir=None):
    return train_short_term(dataset, MODEL, LossConfig(), opt, RngStream(seed),
                            windowing=WINDOW, state=state, out_dir=out_dir)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(SCENARIO)


class TestOptimizerConfig:
    def test_desk_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.weight_decay == 1e-4
        assert cfg.decay_factor == 0.1

    def test_paper_schedule_echo(self):
        cfg = OptimizerConfig.paper_schedule()
        assert (cfg.lr, cfg.epochs, cfg.batch_size, cfg.decay_epoch) == (1e-4, 8, 16, 6)

    def test_validation(self):
        with pytest.raises(Exception):
            OptimizerConfig(epochs=0)


class TestAdamW:
    def test_state_round_trip(self):
        from sceneact.autodiff import Parameter

        p = Parameter("w", np.ones((2, 2)))
        opt = AdamW([p], lr=0.1)
        p.value.grad = np.ones((2, 2))
        opt.step()
        arrays = {k: v.copy() for k, v in opt.state_arrays().items()}
        opt2 = AdamW([Parameter("w", np.ones((2, 2)))], lr=0.1)
        opt2.load_state_arrays(arrays)
        assert opt2.t == 1
        np.testing.assert_array_equal(opt2.m["w"], opt.m["w"])

    def test_decay_skips_one_dim_params(self):
        from sceneact.autodiff import Parameter

        w = Parameter("w", np.ones((2, 2)))
        b = Parameter("b", np.ones(2))
        opt = AdamW([w, b], lr=0.0, weight_decay=0.5)
        w.value.grad = np.zeros((2, 2))
        b.value.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(w.value.data, np.ones((2, 2)))
        np.testing.assert_array_equal(b.value.data, np.ones(2))

    def test_gradient_clipping(self):
        from sceneact.autodiff import Parameter

        p = Parameter("w", np.zeros(4))
        p.value.grad = np.full(4, 10.0)
        norm = clip_gradients([p], 1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.value.grad) == pytest.approx(1.0)


class TestShortTermTraining:
    def test_zero_learning_rate_freezes_params(self, dataset):
        opt = opt_cfg(lr=1e-30, epochs=1)
        state = run(dataset, opt)
        fresh = mdl.init_params(MODEL, SCENARIO.actor_dim, SCENARIO.scene_dim,
                                RngStream(5).child_named("init"))
        for p, q in zip(state.params.parameters(), fresh.parameters()):
            np.testing.assert_allclose(p.value.data, q.value.data, atol=1e-20)

    def test_same_seed_identical_trajectories(self, dataset):
        s1 = run(dataset, opt_cfg())
        s2 = run(dataset, opt_cfg())
        assert [h[1] for h in s1.history] == [h[1] for h in s2.history]
        h1 = params_hash({p.name: p.value.data for p in s1.params.parameters()})
        h2 = params_hash({p.name: p.value.data for p in s2.params.parameters()})
        assert h1 == h2

    def test_different_seeds_differ(self, dataset):
        s1 = run(dataset, opt_cfg(), seed=5)
        s2 = run(dataset, opt_cfg(), seed=6)
        assert [h[1] for h in s1.history] != [h[1] for h in s2.history]

    def test_loss_decreases_over_first_steps(self, dataset):
        log_lines = []
        train_short_term(dataset, MODEL, LossConfig(), opt_cfg(epochs=5, batch_size=6),
                         RngStream(5), windowing=WINDOW, log_lines=log_lines)
        losses = [float(l.split()[3]) for l in log_lines if l.startswith("step")]
        assert losses[-1] < losses[0]

    def test_resume_reproduces_uninterrupted_run(self, dataset, tmp_path):
        full = run(dataset, opt_cfg(epochs=4), out_dir=None)
        half = run(dataset, opt_cfg(epochs=2), out_dir=tmp_path / "half")
        state, _, _ = load_train_state(tmp_path / "half" / "last.ckpt", opt_cfg(epochs=4))
        resumed = run(dataset, opt_cfg(epochs=4), state=state)
        h_full = params_hash({p.name: p.value.data for p in full.params.parameters()})
        h_res = params_hash({p.name: p.value.data for p in resumed.params.parameters()})
        assert h_full == h_res
        assert [h[1] for h in full.history][2:] == [h[1] for h in resumed.history]

    def test_checkpoint_bytes_deterministic(self, dataset, tmp_path):
        run(dataset, opt_cfg(), out_dir=tmp_path / "a")
        run(dataset, opt_cfg(), out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "last.ckpt").read_bytes() == (
            tmp_path / "b" / "last.ckpt"
        ).read_bytes()

    def test_save_load_round_trip(self, dataset, tmp_path):
        state = run(dataset, opt_cfg())
        path = tmp_path / "state.ckpt"
        save_train_state(path, state, MODEL, SCENARIO)
        loaded, model_cfg, scenario = load_train_state(path, opt_cfg())
        assert model_cfg == MODEL
        assert scenario == SCENARIO
        assert loaded.epoch == state.epoch and loaded.step == state.step
        for p, q in zip(loaded.params.parameters(), state.params.parameters()):
            assert np.array_equal(p.value.data, q.value.data)


class TestLongTermTraining:
    def test_frozen_phase_and_report(self, dataset):
        state = run(dataset, opt_cfg(epochs=1))
        before = params_hash({p.name: p.value.data for p in state.params.parameters()})
        wcfg = WindowingConfig(1.05, 1.05, 2.0, 2.0, 1.0)
        weights, report = train_long_term(
            state, dataset, MODEL, LossConfig(),
            opt_cfg(epochs=1, aggregation_epochs=3), wcfg,
        )
        assert report["params_hash"] == before
        assert weights.weights.shape == (wcfg.num_windows, MODEL.num_classes)
        assert state.aggregation is weights

    def test_single_window_matches_short_term_map(self, dataset):
        state = run(dataset, opt_cfg(epochs=1))
        single = WindowingConfig.short_term()
        weights, report = train_long_term(
            state, dataset, MODEL, LossConfig(),
            opt_cfg(epochs=1, aggregation_epochs=40), single,
        )
        short = evaluate_short_term(state.params, MODEL, dataset.eval, SCENARIO, single)
        assert report["long_term_map"] == pytest.approx(short.mean_ap, abs=1e-9)
        assert report["short_term_map"] == pytest.approx(short.mean_ap, abs=1e-9)
