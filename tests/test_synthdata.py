import dataclasses

import numpy as np
import pytest

from sceneact.boxes import BoundingBox
from sceneact.errors import ConfigError, ValidationError
from sceneact.evaluation import Detection, evaluate
from sceneact.rng import RngStream
from sceneact.synthdata import (
    GRID_H,
    GRID_T,
    GRID_W,
    SCENE_DIM,
    TIMELINE_EXTENT,
    ActorProposal,
    ScenarioConfig,
    annotation_records,
    category_map,
    generate_clip,
    generate_dataset,
    ground_truth_set,
    keyframe_grid,
    sample_proposals,
    signature_bank,
    temporal_augment,
    window_grid,
    write_annotations,
)
from sceneact.training import ground_truth_boxes
from testkit import (
    ParseError,
    appearance_knn_detections,
    oracle_scene_detections,
    read_annotations,
    token_index,
)


def small_cfg(**kw):
    base = dict(seed=77, train_clips=8, eval_clips=4)
    base.update(kw)
    return ScenarioConfig(**base)


class TestGenerateClip:
    def test_noise_free_detector_returns_gt_boxes(self):
        cfg = small_cfg(box_jitter=0.0, false_positive_rate=0.0, false_negative_rate=0.0)
        clip = generate_clip(cfg, RngStream(1).child(5), "t", 0.0)
        det_boxes = {d.box.corners() for d in clip.detections}
        gt_boxes = {b.corners() for b in clip.truth.boxes}
        assert det_boxes == gt_boxes

    def test_same_stream_bit_identical(self):
        cfg = small_cfg()
        a = generate_clip(cfg, RngStream(cfg.seed).child(0, 3), "x", 2.0)
        b = generate_clip(cfg, RngStream(cfg.seed).child(0, 3), "x", 2.0)
        assert np.array_equal(a.timeline, b.timeline)
        assert a.truth.boxes == b.truth.boxes
        assert np.array_equal(a.truth.labels, b.truth.labels)
        assert [p.box for p in a.proposals] == [p.box for p in b.proposals]

    def test_zero_magnitude_removes_scene_signal(self):
        cfg = small_cfg(signature_magnitude=0.0, scene_noise=0.0)
        clip = generate_clip(cfg, RngStream(2).child(1), "z", 0.0)
        assert np.allclose(clip.timeline, 0.0)

    def test_every_instance_active_at_keyframe(self):
        cfg = small_cfg()
        for i in range(10):
            clip = generate_clip(cfg, RngStream(3).child(i), f"c{i}", 0.0)
            for inst in clip.truth.instances:
                assert inst.start <= 0.0 <= inst.end

    def test_signatures_planted_at_active_cells(self):
        cfg = small_cfg(scene_noise=0.0)
        clip = generate_clip(cfg, RngStream(4).child(2), "s", 0.0)
        bank = signature_bank(cfg.seed, cfg.num_classes)
        slice0 = TIMELINE_EXTENT
        for inst in clip.truth.instances:
            row, col = inst.cells[0]
            token = clip.timeline[slice0, row, col]
            assert token @ bank[inst.class_id] >= cfg.signature_magnitude - 1e-9

    def test_proposals_exactly_k(self):
        cfg = small_cfg()
        for i in range(6):
            clip = generate_clip(cfg, RngStream(5).child(i), f"k{i}", 0.0)
            assert len(clip.proposals) == cfg.proposal_count


class TestSampleProposals:
    def make_dets(self, scores):
        out = []
        for i, s in enumerate(scores):
            x = 0.05 + 0.08 * i
            box = BoundingBox(x, 0.2, x + 0.07, 0.4)
            out.append(ActorProposal(box, s, np.ones(4)))
        return out

    def test_topk_exact_fit_sorted(self):
        dets = self.make_dets([0.3, 0.9, 0.6])
        out = sample_proposals(dets, 3, mode="topk", actor_dim=4)
        assert [p.person_score for p in out] == [0.9, 0.6, 0.3]

    def test_threshold_pads_with_dummies(self):
        dets = self.make_dets([0.95, 0.5, 0.3])
        out = sample_proposals(dets, 3, mode="threshold", tau=0.9, actor_dim=4)
        assert [p.person_score for p in out] == [0.95, 0.0, 0.0]
        assert np.all(out[1].feature == 0.0)

    def test_no_detections_all_dummies(self):
        out = sample_proposals([], 4, mode="topk", actor_dim=6)
        assert len(out) == 4
        assert all(p.person_score == 0.0 for p in out)

    def test_matches_sort_filter_oracle(self):
        gen = RngStream(6).generator()
        for _ in range(40):
            scores = list(np.round(gen.uniform(0, 1, size=int(gen.integers(0, 9))), 3))
            dets = self.make_dets(scores)
            k = int(gen.integers(1, 7))
            tau = float(gen.choice([0.0, 0.3, 0.7, 0.9]))
            out = sample_proposals(dets, k, mode="threshold", tau=tau, actor_dim=4)
            kept = sorted([s for s in scores if s >= tau], reverse=True)[:k]
            expected = kept + [0.0] * (k - len(kept))
            assert [p.person_score for p in out] == expected
            topk = sample_proposals(dets, k, mode="topk", actor_dim=4)
            assert [p.person_score for p in topk] == sorted(scores, reverse=True)[:k] + [0.0] * max(0, k - len(scores))

    def test_invalid_mode_and_k(self):
        with pytest.raises(ConfigError):
            sample_proposals([], 0, actor_dim=2)
        with pytest.raises(ConfigError):
            sample_proposals([], 3, mode="bogus", actor_dim=2)

    def test_always_exactly_k(self):
        gen = RngStream(7).generator()
        for _ in range(30):
            dets = self.make_dets(list(gen.uniform(0, 1, size=int(gen.integers(0, 12)))))
            k = int(gen.integers(1, 9))
            assert len(sample_proposals(dets, k, mode="topk", actor_dim=4)) == k


class TestWindows:
    def test_window_grid_shape_and_order(self):
        cfg = small_cfg()
        clip = generate_clip(cfg, RngStream(8).child(0), "w", 10.0)
        grid = keyframe_grid(clip, 1.05, 1.05)
        assert grid.shape == (SCENE_DIM, GRID_H * GRID_W * GRID_T)
        # t-major flatten: token (t, r, c) comes from timeline slice near offset 0
        slice0 = TIMELINE_EXTENT
        tok = grid[:, token_index(1, 3, 5)]
        assert np.array_equal(tok, clip.timeline[slice0, 3, 5])

    def test_out_of_range_clamps(self, caplog):
        cfg = small_cfg()
        clip = generate_clip(cfg, RngStream(9).child(0), "cl", 0.0)
        far = (clip.keyframe_time + 100.0, clip.keyframe_time + 102.0)
        grid = window_grid(clip, far)
        last = clip.timeline[-1]
        assert np.array_equal(grid[:, token_index(0, 0, 0)], last[0, 0])

    def test_temporal_augment_identity_at_zero_range(self):
        cfg = small_cfg()
        clip = generate_clip(cfg, RngStream(10).child(0), "a", 0.0)
        assert temporal_augment(clip, 0.0, RngStream(1)) is clip

    def test_temporal_augment_shifts_view_only(self):
        cfg = small_cfg()
        clip = generate_clip(cfg, RngStream(11).child(0), "b", 0.0)
        aug = temporal_augment(clip, 1.5, RngStream(12).child(1))
        assert aug.time_offset != 0.0
        assert aug.truth is clip.truth
        assert aug.proposals is clip.proposals

    def test_augment_range_exceeding_slack_rejected(self):
        cfg = small_cfg()
        clip = generate_clip(cfg, RngStream(13).child(0), "c", 0.0)
        with pytest.raises(ConfigError):
            temporal_augment(clip, 1000.0, RngStream(1))

    def test_augment_mean_near_zero(self):
        deltas = []
        cfg = small_cfg()
        clip = generate_clip(cfg, RngStream(14).child(0), "d", 0.0)
        for i in range(10_000):
            deltas.append(temporal_augment(clip, 1.5, RngStream(15).child(i)).time_offset)
        assert abs(np.mean(deltas)) < 0.05

    def test_sustained_signature_visible_after_shift(self):
        cfg = small_cfg(momentary_fraction=0.0, scene_noise=0.0)
        clip = generate_clip(cfg, RngStream(16).child(0), "e", 0.0)
        shifted = dataclasses.replace(clip, time_offset=1.0)
        grid = keyframe_grid(shifted, 1.05, 1.05)
        bank = signature_bank(cfg.seed, cfg.num_classes)
        inst = clip.truth.instances[0]
        row, col = inst.cells[0]
        tok = grid[:, token_index(1, row, col)]
        assert tok @ bank[inst.class_id] > 0.5 * cfg.signature_magnitude


class TestDataset:
    def test_split_sizes_and_ids(self):
        cfg = small_cfg()
        ds = generate_dataset(cfg)
        assert len(ds.train) == 8 and len(ds.eval) == 4
        assert ds.clip("train_0003").clip_id == "train_0003"
        with pytest.raises(ValidationError):
            ds.clip("nope")

    def test_regeneration_identical(self):
        cfg = small_cfg()
        a, b = generate_dataset(cfg), generate_dataset(cfg)
        for ca, cb in zip(a.train + a.eval, b.train + b.eval):
            assert np.array_equal(ca.timeline, cb.timeline)
            assert ca.truth.boxes == cb.truth.boxes

    def test_ground_truth_set_padding(self):
        cfg = small_cfg()
        clip = generate_dataset(cfg).train[0]
        gts = ground_truth_set(clip, cfg.proposal_count)
        assert gts.total == cfg.proposal_count
        assert gts.count == len(clip.truth.boxes)


class TestCsvInterchange:
    def test_annotation_round_trip(self, tmp_path):
        cfg = small_cfg()
        ds = generate_dataset(cfg)
        records = list(annotation_records(ds.eval))
        path = tmp_path / "gt.csv"
        write_annotations(path, records)
        back = read_annotations(path)
        assert back == records

    def test_multilabel_box_emits_multiple_rows(self, tmp_path):
        path = tmp_path / "gt.csv"
        box = BoundingBox(0.1, 0.1, 0.4, 0.5)
        write_annotations(path, [("c", 0.0, box, 1), ("c", 0.0, box, 7)])
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 2

    def test_hand_written_file_parses_two_boxes(self, tmp_path):
        path = tmp_path / "hand.csv"
        path.write_text(
            "clip,1.000000,0.100000,0.100000,0.400000,0.500000,2\n"
            "clip,1.000000,0.100000,0.100000,0.400000,0.500000,5\n"
            "clip,1.000000,0.600000,0.600000,0.900000,0.900000,1\n"
        )
        records = read_annotations(path)
        assert len(records) == 3
        assert len({r[2].corners() for r in records}) == 2

    def test_inverted_box_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("c,0.000000,0.500000,0.100000,0.200000,0.400000,0\n")
        with pytest.raises(ValidationError, match="bad.csv:1"):
            read_annotations(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("c,0.0,0.1,0.1,0.4,0.5,0\nc,0.0,not_a_number,0.1,0.4,0.5,1\n")
        with pytest.raises(ParseError, match="bad2.csv:2"):
            read_annotations(path)

    def test_out_of_range_coordinate_rejected(self, tmp_path):
        path = tmp_path / "bad3.csv"
        path.write_text("c,0.0,0.1,0.1,1.400000,0.5,0\n")
        with pytest.raises(ValidationError):
            read_annotations(path)


class TestSolvabilityProbes:
    def test_oracle_classifier_solves_default_world(self):
        cfg = ScenarioConfig(seed=501, train_clips=0, eval_clips=25)
        ds = generate_dataset(cfg)
        dets, gts = [], []
        for clip in ds.eval:
            for rec in oracle_scene_detections(clip, cfg, 1.05, 1.05):
                dets.append(Detection(rec[0], rec[2], rec[3], rec[4]))
            gts.extend(ground_truth_boxes(clip))
        report = evaluate(dets, gts, category_map(cfg.num_classes))
        assert report.mean_ap >= 0.95

    def test_appearance_only_probe_stays_weak(self):
        cfg = ScenarioConfig(seed=502, train_clips=60, eval_clips=25)
        ds = generate_dataset(cfg)
        dets, gts = [], []
        for clip in ds.eval:
            for rec in appearance_knn_detections(ds.train, clip, cfg.num_classes):
                dets.append(Detection(rec[0], rec[2], rec[3], rec[4]))
            gts.extend(ground_truth_boxes(clip))
        report = evaluate(dets, gts, category_map(cfg.num_classes))
        assert report.mean_ap <= 0.30
