import dataclasses
import logging
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sceneact import autodiff as ad
from sceneact import longterm, matching
from sceneact import model as mdl
from sceneact import training
from sceneact.checkpoint import load_checkpoint, params_hash, save_checkpoint
from sceneact.config import config_from_dict
from sceneact.errors import ConfigError, DimensionError, ValidationError
from sceneact.longterm import AggregationWeights, WindowingConfig
from sceneact.matching import LossConfig, matched_targets, set_loss
from sceneact.rng import RngStream
from sceneact.synthdata import (
    SCENE_DIM,
    ScenarioConfig,
    generate_dataset,
    ground_truth_set,
    keyframe_grid,
)
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
WINDOW = WindowingConfig(long_before=0.0, long_after=0.0)


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
        fresh = mdl.init_params(MODEL, SCENARIO.actor_dim, SCENE_DIM,
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

    def test_phase1_checkpoint_carries_no_windowing(self, dataset, tmp_path):
        path = tmp_path / "state.ckpt"
        save_train_state(path, run(dataset, opt_cfg(epochs=1)), MODEL, SCENARIO)
        sections, meta = load_checkpoint(path)
        assert set(meta) == {"model", "scenario"} and "aggregation" not in sections
        assert load_train_state(path, opt_cfg())[0].aggregation is None

    def test_aggregation_round_trips_with_its_windowing(self, dataset, tmp_path):
        state = run(dataset, opt_cfg(epochs=1))
        wcfg = WindowingConfig(0.5, 1.05, 4.0, 4.0, 2.0)
        weights = RngStream(3).generator().uniform(size=(wcfg.num_windows, MODEL.num_classes))
        state.aggregation = AggregationWeights(wcfg, weights)
        path = tmp_path / "state.ckpt"
        save_train_state(path, state, MODEL, SCENARIO)
        loaded, _model_cfg, _scenario = load_train_state(path, opt_cfg())
        assert loaded.aggregation.windowing == wcfg
        assert np.array_equal(loaded.aggregation.weights, weights)
        assert set(load_checkpoint(path)[0]["aggregation"]) == {"weights"}

    @pytest.mark.parametrize("weights", [
        np.ones((2, MODEL.num_classes)),
        np.ones((1, 2)),
    ], ids=["too_many_rows", "too_few_classes"])
    def test_malformed_aggregation_section_refused(self, dataset, tmp_path, weights):
        path = tmp_path / "state.ckpt"
        state = run(dataset, opt_cfg(epochs=1))
        state.aggregation = AggregationWeights.initial(WINDOW, MODEL.num_classes)
        save_train_state(path, state, MODEL, SCENARIO)
        sections, meta = load_checkpoint(path)
        sections["aggregation"] = {"weights": weights}
        save_checkpoint(path, sections, meta)
        with pytest.raises(ValidationError, match="aggregation/"):
            load_train_state(path, opt_cfg())


    @pytest.mark.parametrize("key,value,match", [
        ("stride", "2.0", "windowing.stride"),
        ("stride", 0.0, "windowing.stride"),
        ("long_before", 1.0, "aggregation/weights"),
    ], ids=["mistyped", "out_of_bounds", "other_window_count"])
    def test_malformed_windowing_metadata_refused(self, dataset, tmp_path, key, value, match):
        path = tmp_path / "state.ckpt"
        state = run(dataset, opt_cfg(epochs=1))
        state.aggregation = AggregationWeights.initial(WindowingConfig(), MODEL.num_classes)
        save_train_state(path, state, MODEL, SCENARIO)
        sections, meta = load_checkpoint(path)
        meta["windowing"][key] = value
        save_checkpoint(path, sections, meta)
        with pytest.raises((ConfigError, ValidationError), match=match):
            load_train_state(path, opt_cfg())

    def test_weights_without_windowing_name_cause_and_remedy(self, dataset, tmp_path):
        # the format before fusion weights carried their windowing
        path = tmp_path / "state.ckpt"
        state = run(dataset, opt_cfg(epochs=1))
        state.aggregation = AggregationWeights.initial(WindowingConfig(), MODEL.num_classes)
        save_train_state(path, state, MODEL, SCENARIO)
        sections, meta = load_checkpoint(path)
        del meta["windowing"]
        save_checkpoint(path, sections, meta)
        with pytest.raises(ValidationError) as refused:
            load_train_state(path, opt_cfg())
        message = str(refused.value)
        assert str(path) in message
        assert "saved before they carried their windowing" in message
        assert "refit them with `train --phase long`" in message


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
        single = WindowingConfig(long_before=0.0, long_after=0.0)
        weights, report = train_long_term(
            state, dataset, MODEL, LossConfig(),
            opt_cfg(epochs=1, aggregation_epochs=40), single,
        )
        short = evaluate_short_term(state.params, MODEL, dataset.eval, SCENARIO, single)
        assert report["long_term_map"] == pytest.approx(short.mean_ap, abs=1e-9)
        assert report["short_term_map"] == pytest.approx(short.mean_ap, abs=1e-9)


class TestSceneBlind:
    """The ``actor_only`` variant, the scene-blind ablation, never reads the scene timeline."""

    BLIND = dataclasses.replace(MODEL, variant="actor_only")

    def test_predictions_ignore_timeline(self, dataset):
        clip = dataset.eval[0]
        noise = np.random.default_rng(0).standard_normal(clip.timeline.shape)
        other = dataclasses.replace(clip, timeline=noise)

        def scores(c, cfg):
            params = mdl.init_params(cfg, SCENARIO.actor_dim, SCENE_DIM, RngStream(5))
            grid = (None if cfg.variant == "actor_only"
                    else keyframe_grid(c, WINDOW.t_before, WINDOW.t_after))
            with ad.no_grad():
                return longterm.action_scores(params, cfg, c.proposals, grid)

        blind = [scores(c, self.BLIND) for c in (clip, other)]
        seeing = [scores(c, MODEL) for c in (clip, other)]
        np.testing.assert_array_equal(blind[0], blind[1])
        assert not np.array_equal(seeing[0], seeing[1])

    def test_one_epoch_has_finite_losses(self, dataset):
        log_lines = []
        state = train_short_term(dataset, self.BLIND, LossConfig(), opt_cfg(epochs=1),
                                 RngStream(5), windowing=WINDOW, log_lines=log_lines)
        losses = [float(l.split()[3]) for l in log_lines if l.startswith("step")]
        assert len(losses) == 3 and np.all(np.isfinite(losses))
        assert state.epoch == 1 and np.isfinite(state.history[0][1])

    def test_one_epoch_builds_no_grid(self, dataset, monkeypatch):
        real_grid = training.keyframe_grid
        calls = []

        def counting_grid(clip, *args):
            calls.append(clip.clip_id)
            return real_grid(clip, *args)

        monkeypatch.setattr(training, "keyframe_grid", counting_grid)
        state = train_short_term(dataset, self.BLIND, LossConfig(), opt_cfg(epochs=1),
                                 RngStream(5), windowing=WINDOW)
        evaluate_short_term(state.params, self.BLIND, dataset.eval[:1], SCENARIO, WINDOW)
        assert calls == []
        # the patched name is the one a scene-reading model goes through
        unified = mdl.init_params(MODEL, SCENARIO.actor_dim, SCENE_DIM, RngStream(5))
        evaluate_short_term(unified, MODEL, dataset.eval[:1], SCENARIO, WINDOW)
        assert calls == [dataset.eval[0].clip_id]


class TestMatchOnce:
    """A clip's match reads only its truth and fixed proposals: one solve per clip per call."""

    def test_match_and_clipping_warning_once_per_train_clip(self, monkeypatch, caplog):
        # more actors than proposals, so building each clip's padded truth warns
        scenario = dataclasses.replace(SCENARIO, num_actors=(4, 5), proposal_count=3)
        crowded = generate_dataset(scenario)
        n = len(crowded.train)
        calls = []
        real_match = matching.match

        def counting_match(gts, proposals, cfg):
            calls.append(id(proposals))
            return real_match(gts, proposals, cfg)

        for module in (matching, training, longterm):  # every module that binds the name
            if hasattr(module, "match"):
                monkeypatch.setattr(module, "match", counting_match)
        caplog.set_level(logging.WARNING, logger="sceneact.matching")

        def clipped():
            return sum("clipping" in r.getMessage() for r in caplog.records)

        state = train_short_term(crowded, MODEL, LossConfig(), opt_cfg(epochs=2),
                                 RngStream(5), windowing=WINDOW)
        assert len(calls) == n and len(set(calls)) == n
        assert clipped() == n
        state = train_short_term(crowded, MODEL, LossConfig(), opt_cfg(epochs=3),
                                 RngStream(5), windowing=WINDOW, state=state)
        assert state.epoch == 3
        assert len(calls) == 2 * n and clipped() == 2 * n
        train_long_term(state, crowded, MODEL, LossConfig(),
                        opt_cfg(aggregation_epochs=2), WindowingConfig(1.05, 1.05, 1.0, 1.0, 1.0))
        assert len(calls) == 3 * n and clipped() == 3 * n


@pytest.fixture
def pool_of(monkeypatch):
    """Swap the worker pool for one with the given number of threads."""
    pools = []

    def make(workers):
        pool = ThreadPoolExecutor(max_workers=workers)
        pools.append(pool)
        monkeypatch.setattr(longterm, "_window_pool", lambda: pool)
        return pool

    yield make
    for pool in pools:
        pool.shutdown(wait=True)


class TestParallelStep:
    """Each clip's backward runs on the pool; folding its gradients reproduces one backward."""

    def test_accumulated_clip_gradients_equal_batch_backward_bitwise(self):
        cfg = config_from_dict({})
        scenario = dataclasses.replace(cfg.scenario, train_clips=4, eval_clips=1)
        clips = generate_dataset(scenario).train
        params = mdl.init_params(cfg.model, scenario.actor_dim, SCENE_DIM,
                                 RngStream(7).child_named("init"))
        losses = []
        for j, clip in enumerate(clips):
            grid = keyframe_grid(clip, 1.05, 1.05)
            logits = mdl.forward_actions(params, cfg.model, clip.proposals, grid,
                                         RngStream(7).child(j), training=True)
            sigma, targets = matched_targets(ground_truth_set(clip, len(clip.proposals)),
                                             clip.proposals, cfg.loss)
            losses.append(set_loss(logits, sigma, targets, cfg.loss))
        total = losses[0]
        for loss in losses[1:]:
            total = ad.add(total, loss)
        ad.backward(ad.scale(total, 1.0 / len(losses)))
        batch = {p.name: p.grad.copy() for p in params.parameters()}
        for p in params.parameters():
            p.zero_grad()
        seed = np.ones(()) * (1.0 / len(losses))
        ad.accumulate([ad.leaf_gradients(loss, seed) for loss in losses])
        assert {"enc1.ln1.gain", "enc1.ln1.bias"} <= set(batch)
        for p in params.parameters():
            assert np.array_equal(p.grad, batch[p.name]), p.name

    def test_checkpoint_and_log_independent_of_worker_count(self, dataset, tmp_path, pool_of):
        outputs = []
        interval = sys.getswitchinterval()
        try:
            for workers in (1, 2, 4):
                pool_of(workers)
                sys.setswitchinterval(1e-5 if workers > 1 else interval)
                log_lines = []
                train_short_term(dataset, MODEL, LossConfig(), opt_cfg(batch_size=3),
                                 RngStream(5), windowing=WINDOW,
                                 out_dir=tmp_path / str(workers), log_lines=log_lines)
                outputs.append(((tmp_path / str(workers) / "last.ckpt").read_bytes(),
                                log_lines))
        finally:
            sys.setswitchinterval(interval)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_step_stacks_clips_two_per_worker_with_one_checkpoint(self, dataset, tmp_path,
                                                                   pool_of, monkeypatch):
        real = training.map_on_pool
        outputs = []
        for workers, batch, sizes in ((2, 4, [[2, 2], [1, 1]]), (1, 3, [[3], [3]]),
                                      (2, 3, [[2, 1], [2, 1]]), (4, 3, [[1, 1, 1], [1, 1, 1]])):
            pool_of(workers)
            monkeypatch.setattr(longterm, "_WORKERS", workers)
            submitted = []

            def counting(fn, jobs):
                jobs = list(jobs)
                submitted.append([len(job[3]) for job in jobs])  # the clips of each job
                return real(fn, jobs)

            monkeypatch.setattr(training, "map_on_pool", counting)
            out = tmp_path / f"{workers}-{batch}"
            train_short_term(dataset, MODEL, LossConfig(), opt_cfg(epochs=1, batch_size=batch),
                             RngStream(5), windowing=WINDOW, out_dir=out)
            assert submitted == sizes
            if batch == 3:
                outputs.append((out / "last.ckpt").read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_bad_clip_raises_in_caller_and_leaves_state(self, dataset, pool_of):
        pool_of(2)
        state = run(dataset, opt_cfg(epochs=1, batch_size=6))
        before = {p.name: p.value.data.copy() for p in state.params.parameters()}
        moments = {k: v.copy() for k, v in state.optimizer.state_arrays().items()}
        clip = dataset.train[1]
        wrong = dataclasses.replace(clip.proposals[0],
                                    feature=np.zeros(SCENARIO.actor_dim + 1))
        bad = dataclasses.replace(clip, proposals=[wrong, *clip.proposals[1:]])
        train = [*dataset.train[:1], bad, *dataset.train[2:]]
        with pytest.raises(DimensionError, match="actor feature shape"):
            run(dataclasses.replace(dataset, train=train), opt_cfg(epochs=2, batch_size=6),
                state=state)
        assert state.step == 1 and state.epoch == 1
        for p in state.params.parameters():
            assert np.array_equal(p.value.data, before[p.name]), p.name
        after = state.optimizer.state_arrays()
        assert all(np.array_equal(after[k], v) for k, v in moments.items())
        assert ad.reduce_sum(state.params.parameters()[0].value).requires_grad
