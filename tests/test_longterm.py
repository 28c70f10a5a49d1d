import dataclasses
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sceneact import autodiff as ad
from sceneact import longterm
from sceneact import model as mdl
from sceneact import training
from sceneact.errors import ConfigError, ContractError, DimensionError
from sceneact.longterm import (
    AggregationWeights,
    WindowedScores,
    WindowingConfig,
    aggregate,
    aggregation_loss,
    map_on_pool,
    precompute_windowed,
    run_windowed,
    run_windowed_clips,
    train_aggregation,
    windows,
)
from sceneact.matching import LossConfig, matched_targets, set_loss
from sceneact.rng import RngStream
from sceneact.synthdata import (
    SCENE_DIM,
    ScenarioConfig,
    generate_clip,
    generate_dataset,
    ground_truth_set,
    keyframe_grid,
    sample_proposals,
    window_grid,
)
from sceneact.checkpoint import params_hash
from sceneact.training import evaluate_short_term
from testkit import grad_check


def tiny_model(scenario, seed=3, layers=1, variant="unified"):
    cfg = mdl.ModelConfig(embed_dim=8, layers=layers, heads=2, ffn_dim=16, dropout=0.0,
                          variant=variant, num_classes=scenario.num_classes)
    params = mdl.init_params(cfg, scenario.actor_dim, SCENE_DIM, RngStream(seed))
    return cfg, params


def small_scenario(**kw):
    base = dict(seed=900, train_clips=4, eval_clips=2)
    base.update(kw)
    return ScenarioConfig(**base)


class TestWindows:
    def test_degenerate_single_window(self):
        cfg = WindowingConfig(1.05, 1.05, 0.0, 0.0, 1.0)
        out = windows(cfg, 10.0)
        assert out == [(0, (8.95, 11.05))]

    def test_default_thirteen_windows(self):
        cfg = WindowingConfig()
        out = windows(cfg, 0.0)
        assert len(out) == 13
        assert [n for n, _ in out] == list(range(-6, 7))

    def test_floor_arithmetic(self):
        cfg = WindowingConfig(1.0, 1.0, 5.0, 3.0, 2.0)
        out = windows(cfg, 0.0)
        assert [n for n, _ in out] == [-2, -1, 0, 1]
        n, (a, b) = out[0]
        assert (a, b) == (-5.0, -3.0)

    def test_invalid_stride(self):
        with pytest.raises(ConfigError):
            WindowingConfig(stride=0.0)


def make_scores(gen, n_win=3, ncls=4, k=5):
    return gen.uniform(0, 1, size=(n_win, ncls, k))


class FakeClip:
    pass


def windowed(scores, offsets=None):
    offsets = offsets or tuple(range(-(scores.shape[0] // 2), scores.shape[0] // 2 + 1))
    return WindowedScores(FakeClip(), tuple(offsets), scores)


THREE_WINDOWS = WindowingConfig(1.05, 1.05, 1.0, 1.0, 1.0)  # offsets -1, 0, 1


class TestAggregate:
    def test_one_hot_weights_reproduce_keyframe(self):
        gen = RngStream(5).generator()
        s = make_scores(gen)
        w = AggregationWeights.initial(WindowingConfig(1, 1, 1, 1, 1), 4)
        out = aggregate(windowed(s), w, "weighted")
        assert np.array_equal(out, s[1])

    def test_uniform_weighted_equals_avg_bitwise(self):
        gen = RngStream(6).generator()
        s = make_scores(gen)
        uniform = AggregationWeights(
            THREE_WINDOWS, np.full((3, 4), 1.0 / 3.0)
        )
        assert np.array_equal(aggregate(windowed(s), uniform, "weighted"),
                              aggregate(windowed(s), strategy="avg"))

    def test_avg_equals_topk_all_and_max_equals_topk_one(self):
        gen = RngStream(7).generator()
        s = make_scores(gen)
        ws = windowed(s)
        assert np.array_equal(aggregate(ws, strategy="avg"),
                              aggregate(ws, strategy="topk", topk=3))
        assert np.array_equal(aggregate(ws, strategy="max"),
                              aggregate(ws, strategy="topk", topk=1))

    @pytest.mark.parametrize("k", [0, 4])
    def test_topk_outside_window_count_rejected(self, k):
        ws = windowed(make_scores(RngStream(10).generator()))
        with pytest.raises(ConfigError, match="window count"):
            aggregate(ws, strategy="topk", topk=k)

    def test_max_matches_numpy_max(self):
        gen = RngStream(8).generator()
        s = make_scores(gen)
        np.testing.assert_allclose(aggregate(windowed(s), strategy="max"), s.max(axis=0))

    def test_dot_product_hand_case(self):
        s = np.zeros((3, 1, 1))
        s[:, 0, 0] = [0.2, 0.9, 0.4]
        w = AggregationWeights(THREE_WINDOWS, np.array([[0.1], [0.8], [0.1]]))
        out = aggregate(windowed(s), w, "weighted")
        assert out[0, 0] == pytest.approx(0.78, abs=1e-12)

    def test_weighted_linear_in_weights(self):
        gen = RngStream(9).generator()
        s = make_scores(gen)
        a1 = AggregationWeights(THREE_WINDOWS, gen.normal(size=(3, 4)))
        a2 = AggregationWeights(THREE_WINDOWS, gen.normal(size=(3, 4)))
        both = AggregationWeights(THREE_WINDOWS, a1.weights + a2.weights)
        np.testing.assert_allclose(
            aggregate(windowed(s), both, "weighted"),
            aggregate(windowed(s), a1, "weighted") + aggregate(windowed(s), a2, "weighted"),
            atol=1e-12,
        )

    def test_empty_windows_rejected(self):
        with pytest.raises(ContractError):
            aggregate(windowed(np.zeros((0, 2, 2)), offsets=()), strategy="avg")

    def test_initial_is_one_hot_at_offset_zero_of_its_windowing(self):
        wcfg = WindowingConfig(0.5, 0.5, 3.0, 1.0, 1.0)  # offsets -3..1
        w = AggregationWeights.initial(wcfg, 4)
        expected = np.zeros((5, 4))
        expected[3] = 1.0
        assert w.windowing == wcfg
        assert np.array_equal(w.weights, expected)

    def test_weights_need_one_row_per_window(self):
        with pytest.raises(ContractError, match="one weight row per window"):
            AggregationWeights(THREE_WINDOWS, np.ones((5, 4)))


class TestRunWindowed:
    def test_single_window_equals_plain_inference(self):
        scenario = small_scenario()
        cfg, params = tiny_model(scenario)
        clip = generate_clip(scenario, RngStream(900).child(0, 0), "c0", 0.0)
        single = WindowingConfig.short_term()
        ws = run_windowed(params, cfg, clip, single)
        grid = keyframe_grid(clip, single.t_before, single.t_after)
        with ad.no_grad():
            scores = longterm.action_scores(params, cfg, clip.proposals, grid)
        np.testing.assert_allclose(ws.scores[0], scores, atol=1e-12)

    def test_constant_scene_gives_constant_scores(self):
        scenario = small_scenario(scene_noise=0.0, signature_magnitude=0.0)
        cfg, params = tiny_model(scenario)
        clip = generate_clip(scenario, RngStream(901).child(0, 0), "c1", 0.0)
        ws = run_windowed(params, cfg, clip, WindowingConfig())
        for n in range(1, ws.scores.shape[0]):
            np.testing.assert_allclose(ws.scores[n], ws.scores[0], atol=1e-12)

    def test_time_varying_scene_varies_scores(self):
        scenario = small_scenario(momentary_fraction=1.0)
        cfg, params = tiny_model(scenario)
        clip = generate_clip(scenario, RngStream(902).child(0, 1), "c2", 0.0)
        ws = run_windowed(params, cfg, clip, WindowingConfig())
        spread = np.abs(ws.scores - ws.scores[ws.offsets.index(0)]).max()
        assert spread > 1e-6


@pytest.fixture
def two_window_workers(monkeypatch):
    """Two workers for run_windowed, so windows overlap even on one CPU."""
    pool = ThreadPoolExecutor(max_workers=2)
    monkeypatch.setattr(longterm, "_window_pool", lambda: pool)
    monkeypatch.setattr(longterm, "_WORKERS", 2)
    yield pool
    pool.shutdown(wait=True)


class TestParallelWindows:
    @pytest.mark.parametrize("variant", ["unified", "encoder_decoder"])
    def test_scores_equal_serial_loop_bitwise(self, two_window_workers, variant):
        scenario = small_scenario(momentary_fraction=1.0)
        cfg, params = tiny_model(scenario, layers=2, variant=variant)
        clip = generate_clip(scenario, RngStream(903).child(0, 2), "c3", 0.0)
        windowing = WindowingConfig()
        ws = run_windowed(params, cfg, clip, windowing)
        serial = []
        with ad.no_grad():
            for _n, interval in windows(windowing, clip.keyframe_time):
                grid = window_grid(clip, interval)
                logits = mdl.forward_actions(params, cfg, clip.proposals, grid, RngStream(0),
                                             training=False)
                serial.append(ad._sigmoid(logits.data))
        assert np.array_equal(ws.scores, np.stack(serial))

    @pytest.mark.parametrize("variant,windowing,jobs", [
        ("decoder_only", WindowingConfig(), [3, 2, 2, 2, 2, 2]),  # 14.1 s of support
        ("unified", WindowingConfig.short_term(), [1]),  # 2.1 s
        ("unified", WindowingConfig(long_before=1.0, long_after=1.0), [2, 1]),  # 4.1 s
    ], ids=["decoder_only-14.1", "unified-2.1", "unified-4.1"])
    def test_window_stacks_equal_serial_loop_bitwise(self, two_window_workers, monkeypatch,
                                                     variant, windowing, jobs):
        scenario = small_scenario(momentary_fraction=1.0)
        cfg, params = tiny_model(scenario, layers=2, variant=variant)
        clip = generate_clip(scenario, RngStream(905).child(0, 2), "c5", 0.0)
        sizes = []
        scores = longterm.action_scores

        def counted(*job):
            sizes.append(len(job[3]))
            return scores(*job)

        monkeypatch.setattr(longterm, "action_scores", counted)
        ws = run_windowed(params, cfg, clip, windowing)
        with ad.no_grad():
            serial = [scores(params, cfg, clip.proposals, window_grid(clip, interval))
                      for _n, interval in windows(windowing, clip.keyframe_time)]
        assert sorted(sizes, reverse=True) == jobs
        assert ws.scores.tobytes() == np.stack(serial).tobytes()

    def test_window_error_propagates_and_recording_resumes(self, two_window_workers):
        scenario = small_scenario()
        cfg, params = tiny_model(scenario)
        clip = generate_clip(scenario, RngStream(904).child(0, 3), "c4", 0.0)
        wrong = dataclasses.replace(clip.proposals[0], feature=np.zeros(scenario.actor_dim + 1))
        bad = dataclasses.replace(clip, proposals=[wrong, *clip.proposals[1:]])
        with pytest.raises(DimensionError, match="actor feature shape"):
            run_windowed(params, cfg, bad, WindowingConfig())
        grid = keyframe_grid(clip, 1.05, 1.05)
        logits = mdl.forward_actions(params, cfg, clip.proposals, grid, RngStream(1),
                                     training=True)
        assert logits.requires_grad


class CountingPool:
    """A pool that counts its jobs submitted but not yet finished, and the most at once.

    A job counts as finished when its function returns, a moment before its future
    is done, so the count never exceeds what ``map_on_pool`` sees in flight.
    """

    def __init__(self, pool):
        self.pool = pool
        self.lock = threading.Lock()
        self.in_flight = self.most = 0
        self.futures = []

    def submit(self, fn, *args):
        with self.lock:
            self.in_flight += 1
            self.most = max(self.most, self.in_flight)

        def run():
            try:
                return fn(*args)
            finally:
                with self.lock:
                    self.in_flight -= 1

        self.futures.append(self.pool.submit(run))
        return self.futures[-1]


@pytest.fixture
def counting_pool(two_window_workers, monkeypatch):
    pool = CountingPool(two_window_workers)
    monkeypatch.setattr(longterm, "_window_pool", lambda: pool)
    return pool


BOUND = 8  # jobs in flight: 4 per worker, on two_window_workers' 2


class TestMapOnPool:
    def test_in_flight_bounded_and_results_in_job_order(self, counting_pool):
        drawn = []

        def jobs():
            for i in range(40):
                drawn.append(i)
                yield (i,)

        def job(i):
            time.sleep(0.005 + 0.001 * (i % 4))  # unequal, so jobs finish out of order
            return i * i

        assert map_on_pool(job, jobs()) == [i * i for i in range(40)]
        assert counting_pool.most == BOUND and counting_pool.in_flight == 0
        assert drawn == list(range(40))

    def test_no_job_submitted_after_an_error(self, counting_pool):
        def jobs():
            yield (0,)
            counting_pool.futures[0].exception(timeout=10)  # job 0 has raised
            yield from ((i,) for i in range(1, 20))

        def job(i):
            raise ValueError(f"job {i}")

        with pytest.raises(ValueError, match="job 0"):
            map_on_pool(job, jobs())
        assert len(counting_pool.futures) == 1

    def test_submitted_jobs_end_before_first_error_in_job_order(self, counting_pool):
        ended = []

        def job(i):
            try:
                if i == 1:
                    time.sleep(0.05)
                    raise ValueError("job 1")
                if i == 2:
                    raise KeyError("job 2")  # raises first, but is later in job order
                time.sleep(0.02)
            finally:
                ended.append(i)

        with pytest.raises(ValueError, match="job 1"):
            map_on_pool(job, ((i,) for i in range(40)))
        submitted = len(counting_pool.futures)
        assert submitted < 40
        assert sorted(ended) == list(range(submitted))
        assert all(f.done() for f in counting_pool.futures)

    def test_iterable_error_waits_for_jobs_and_recording_resumes(self, counting_pool):
        recorded = []

        def jobs():
            yield from ((i,) for i in range(3))
            raise DimensionError("grid of clip 3")

        def job(i):
            time.sleep(0.05)
            recorded.append(ad.reduce_sum(ad.Parameter("w", np.ones(2)).value).requires_grad)

        with pytest.raises(DimensionError, match="grid of clip 3"):
            with ad.no_grad():
                map_on_pool(job, jobs())
        assert recorded == [False, False, False]  # every job ended inside no_grad
        assert ad.reduce_sum(ad.Parameter("w", np.ones(2)).value).requires_grad


class TestOnePoolPass:
    """Scoring many clips in one pool pass gives each clip's scores bit for bit."""

    SUPPORTS = {"14.1": WindowingConfig(), "4.1": WindowingConfig(long_before=1.0,
                                                                  long_after=1.0)}

    @pytest.mark.parametrize("variant", ["unified", "decoder_only"])
    @pytest.mark.parametrize("support,stacks", [("14.1", [3, 2, 2, 2, 2, 2]), ("4.1", [2, 1])])
    def test_clips_equal_per_clip_run_windowed_bitwise(self, two_window_workers, monkeypatch,
                                                       variant, support, stacks):
        n_clips = 3
        scenario = small_scenario(momentary_fraction=1.0, train_clips=n_clips)
        cfg, params = tiny_model(scenario, layers=2, variant=variant)
        clips = generate_dataset(scenario).train
        windowing = self.SUPPORTS[support]
        sizes = []
        scores = longterm.action_scores

        def counted(*job):
            sizes.append(len(job[3]))
            return scores(*job)

        monkeypatch.setattr(longterm, "action_scores", counted)
        together = run_windowed_clips(params, cfg, clips, windowing)
        assert sorted(sizes) == sorted(stacks * n_clips)
        assert len(together) == n_clips and all(ws.clip is c for ws, c in zip(together, clips))
        for ws, clip in zip(together, clips):
            alone = run_windowed(params, cfg, clip, windowing)
            assert ws.offsets == alone.offsets == tuple(windowing.offsets)
            assert ws.scores.shape == alone.scores.shape
            assert ws.scores.tobytes() == alone.scores.tobytes()

    def test_precompute_equals_per_clip_loop_bitwise(self, two_window_workers):
        scenario = small_scenario(train_clips=5, num_actors=(2, 3))
        cfg, params = tiny_model(scenario)
        clips = generate_dataset(scenario).train
        windowing, loss_cfg = WindowingConfig(long_before=2.0, long_after=2.0), LossConfig()
        scores, targets = precompute_windowed(params, cfg, clips, windowing, loss_cfg)
        loop_scores, loop_targets = [], []
        for clip in clips:
            ws = run_windowed(params, cfg, clip, windowing)
            sigma, t = matched_targets(ground_truth_set(clip, len(clip.proposals)),
                                       clip.proposals, loss_cfg)
            loop_scores.append(ws.scores[:, :, list(sigma)])
            loop_targets.append(t)
        assert scores.tobytes() == np.stack(loop_scores).tobytes()
        assert targets.tobytes() == np.stack(loop_targets).tobytes()

    def test_jobs_of_different_k_and_grid_kinds(self, two_window_workers):
        scenario = small_scenario()
        cfg, params = tiny_model(scenario)
        clips = generate_dataset(scenario).train
        windowing = WindowingConfig(long_before=1.0, long_after=1.0)
        grids = [[window_grid(c, iv) for _n, iv in windows(windowing, c.keyframe_time)]
                 for c in clips]
        jobs = [(clips[0].proposals[:1], [grids[0][1]]),
                (clips[1].proposals, [np.stack(grids[1][:2]), grids[1][2][None]]),
                (clips[2].proposals[:2], [np.stack(grids[2])])]
        scores = longterm.score_jobs(params, cfg, jobs)
        with ad.no_grad():
            serial = [longterm.action_scores(params, cfg, clips[0].proposals[:1], grids[0][1]),
                      *(np.stack([longterm.action_scores(params, cfg, p, g) for g in grids[c]])
                        for c, p in ((1, clips[1].proposals), (2, clips[2].proposals[:2])))]
        assert [s.shape[-1] for s in scores] == [1, len(clips[1].proposals), 2]
        assert [s.tobytes() for s in scores] == [s.tobytes() for s in serial]

    @pytest.mark.parametrize("variant", ["unified", "actor_only"])
    def test_short_term_eval_equals_serial_loop(self, two_window_workers, variant):
        scenario = small_scenario(eval_clips=5, num_actors=(1, 4), proposal_count=4)
        cfg, params = tiny_model(scenario, variant=variant)
        clips = generate_dataset(scenario).eval
        windowing, tau = WindowingConfig(), 0.6
        report = evaluate_short_term(params, cfg, clips, scenario, windowing,
                                     proposal_mode="threshold", proposal_tau=tau)
        scored = []
        with ad.no_grad():
            for clip in clips:
                proposals = sample_proposals(clip.detections, scenario.proposal_count,
                                             mode="threshold", tau=tau,
                                             actor_dim=scenario.actor_dim)
                grid = (None if variant == "actor_only"
                        else keyframe_grid(clip, windowing.t_before, windowing.t_after))
                scored.append((clip, proposals,
                               longterm.action_scores(params, cfg, proposals, grid)))
        # the threshold drops detections that the clips' top-k proposals keep
        assert any([p.person_score for p in props] != [p.person_score for p in clip.proposals]
                   for clip, props, _s in scored)
        serial = training._evaluate_scored(scored, scenario)
        assert report.per_class_ap == serial.per_class_ap
        assert report.mean_ap == serial.mean_ap


class TestAggregationTraining:
    def test_gradient_matches_finite_differences_at_zero(self):
        scenario = small_scenario()
        cfg, params = tiny_model(scenario)
        loss_cfg = LossConfig()
        ds = generate_dataset(scenario)
        wcfg = WindowingConfig(1.05, 1.05, 2.0, 2.0, 1.0)
        scores, targets = precompute_windowed(
            params, cfg, ds.train[:2], wcfg, loss_cfg
        )
        # Checked where every fit starts. At w = 0 every fused probability is
        # 0, the logit clamp holds everywhere and the tape gradient is zero
        # while the finite-difference slope is not.
        w = ad.Parameter("agg", AggregationWeights.initial(wcfg, cfg.num_classes).weights)

        def f():
            return aggregation_loss(w, scores, targets, loss_cfg)

        report = grad_check(f, [w], step=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err
        # one plain gradient step moves against the gradient
        w.zero_grad()
        ad.backward(f())
        g = w.grad.copy()
        assert np.any(g != 0.0)
        before = f().item()
        w.assign(w.value.data - 1e-3 * g)
        assert f().item() < before

    def test_model_params_frozen_and_weights_move(self):
        scenario = small_scenario()
        cfg, params = tiny_model(scenario)
        ds = generate_dataset(scenario)
        before = params_hash({p.name: p.value.data for p in params.parameters()})
        wcfg = WindowingConfig(1.05, 1.05, 2.0, 2.0, 1.0)
        weights = train_aggregation(params, cfg, ds.train, wcfg,
                                    LossConfig(), lr=1e-2, epochs=5)
        after = params_hash({p.name: p.value.data for p in params.parameters()})
        assert before == after
        init = AggregationWeights.initial(wcfg, cfg.num_classes)
        assert not np.array_equal(weights.weights, init.weights)

    def test_fitted_weights_are_non_negative(self):
        # negative weights invert the ranking within a class; the fit projects them away
        scenario = small_scenario()
        cfg, params = tiny_model(scenario)
        ds = generate_dataset(scenario)
        wcfg = WindowingConfig(1.05, 1.05, 2.0, 2.0, 1.0)
        weights = train_aggregation(params, cfg, ds.train, wcfg,
                                    LossConfig(), lr=1e-2, epochs=5)
        assert np.all(weights.weights >= 0.0)

    def test_single_window_training_preserves_ranking(self):
        scenario = small_scenario()
        cfg, params = tiny_model(scenario)
        ds = generate_dataset(scenario)
        single = WindowingConfig.short_term()
        weights = train_aggregation(params, cfg, ds.train, single,
                                    LossConfig(), lr=1e-2, epochs=30)
        assert weights.weights.shape[0] == 1
        assert np.all(weights.weights > 0.0)  # positive scaling keeps ranking intact

    def test_momentary_world_concentrates_mass_at_keyframe(self):
        scenario = small_scenario(momentary_fraction=1.0, train_clips=10, scene_noise=0.05)
        cfg, params = tiny_model(scenario, layers=2)
        ds = generate_dataset(scenario)
        wcfg = WindowingConfig(1.05, 1.05, 4.0, 4.0, 1.0)
        weights = train_aggregation(params, cfg, ds.train, wcfg,
                                    LossConfig(), lr=2e-2, epochs=60)
        mass = np.abs(weights.weights).sum(axis=1)
        assert int(np.argmax(mass)) == weights.windowing.offsets.index(0)


def per_clip_loss(params, cfg, clips, wcfg, loss_cfg, w):
    """Oracle: one windowed run, keyframe match and set loss per clip, averaged.

    The fused scores are built on the tape window by window and checked
    against ``aggregate``, so the oracle's gradient is a plain per-clip graph.
    Returns the loss and the clips' matches.
    """
    total, sigmas = None, []
    for clip in clips:
        ws = run_windowed(params, cfg, clip, wcfg)
        sigma, targets = matched_targets(ground_truth_set(clip, len(clip.proposals)),
                                         clip.proposals, loss_cfg)
        sigmas.append(sigma)
        fused = None
        for n in range(ws.scores.shape[0]):
            term = ad.transpose(ad.mul_rowvec(ad.Tensor(ws.scores[n].T),
                                              ad.reshape(ad.narrow(w.value, 0, n, n + 1), (-1,))))
            fused = term if fused is None else ad.add(fused, term)
        np.testing.assert_array_equal(
            fused.data, aggregate(ws, AggregationWeights(wcfg, w.value.data)))
        loss = set_loss(ad.logit(fused, 1e-9), sigma, targets, loss_cfg)
        total = loss if total is None else ad.add(total, loss)
    return ad.scale(total, 1.0 / len(clips)), sigmas


class TestStackedAggregationLoss:
    def setup_method(self):
        # two actors per clip, so some matches are not the identity
        self.scenario = small_scenario(train_clips=5, num_actors=(2, 3))
        self.cfg, self.params = tiny_model(self.scenario)
        self.clips = generate_dataset(self.scenario).train
        self.loss_cfg = LossConfig()

    def stacked(self, clips, wcfg):
        return precompute_windowed(self.params, self.cfg, clips, wcfg, self.loss_cfg)

    def test_equals_per_clip_oracle_in_value_and_gradient(self):
        wcfg = WindowingConfig(1.05, 1.05, 2.0, 2.0, 1.0)
        scores, targets = self.stacked(self.clips, wcfg)
        initial = AggregationWeights.initial(wcfg, self.cfg.num_classes).weights
        rand = RngStream(11).generator().uniform(0.0, 1.5 / wcfg.num_windows, initial.shape)
        for start in (initial, rand):
            w = ad.Parameter("agg", start)
            oracle, sigmas = per_clip_loss(self.params, self.cfg, self.clips, wcfg,
                                           self.loss_cfg, w)
            ad.backward(oracle)
            g_oracle = w.grad.copy()
            w.zero_grad()
            stacked = aggregation_loss(w, scores, targets, self.loss_cfg)
            ad.backward(stacked)
            assert any(sigma != tuple(range(len(sigma))) for sigma in sigmas)
            assert stacked.item() == pytest.approx(oracle.item(), rel=1e-12)
            assert np.any(g_oracle != 0.0)
            np.testing.assert_allclose(w.grad, g_oracle, rtol=1e-12,
                                       atol=1e-12 * np.abs(g_oracle).max())

    def test_graph_size_independent_of_clips_and_windows(self):
        def nodes(n_clips, long_span):
            wcfg = WindowingConfig(1.05, 1.05, long_span, long_span, 1.0)
            scores, targets = self.stacked(self.clips[:n_clips], wcfg)
            w = ad.Parameter("agg", AggregationWeights.initial(wcfg, self.cfg.num_classes).weights)
            return len(ad._topo_order(aggregation_loss(w, scores, targets, self.loss_cfg)))

        assert nodes(2, 1.0) == nodes(4, 1.0)  # 3 windows
        assert nodes(2, 1.0) == nodes(2, 2.0)  # 3 against 5 windows
