import itertools
import math

import numpy as np
import pytest

from sceneact import autodiff as ad
from sceneact.boxes import BoundingBox, box_l1, giou
from sceneact.errors import ContractError
from sceneact.matching import (
    GroundTruthSet,
    LossConfig,
    cost_matrix,
    hungarian,
    match,
    set_loss,
)
from sceneact.model import PredictionSet
from sceneact.rng import RngStream


def brute_force_assignment(cost):
    n = cost.shape[0]
    best_cost, best_perm = math.inf, None
    for perm in itertools.permutations(range(n)):
        c = sum(cost[i, perm[i]] for i in range(n))
        if c < best_cost:
            best_cost, best_perm = c, perm
    return best_cost, best_perm


def make_preds(boxes, person_scores, logits):
    return PredictionSet(boxes, np.asarray(person_scores), np.asarray(logits))


def scalar_focal(logit: float, target: int, cfg: LossConfig) -> float:
    """Independent scalar sigmoid focal loss, written with the math module."""
    x = float(logit)
    sp_neg = math.log1p(math.exp(-abs(x))) + max(-x, 0.0)  # softplus(-x)
    sp_pos = math.log1p(math.exp(-abs(x))) + max(x, 0.0)  # softplus(x)
    p = 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))
    if target:
        return cfg.focal_alpha * (1.0 - p) ** cfg.focal_gamma * sp_neg
    return (1.0 - cfg.focal_alpha) * p ** cfg.focal_gamma * sp_pos


def focal_loss(logit: float, target: int, cfg: LossConfig) -> float:
    """focal_from_logits on a single logit."""
    out = ad.focal_from_logits(ad.Tensor([logit]), [target], cfg.focal_alpha, cfg.focal_gamma)
    return out.item()


def pair_cost(gt_box, gt_labels, pred_box, person_score, cfg) -> float:
    """cost_matrix entry of one target (None: padding) against one prediction."""
    labels = np.zeros((0, 1)) if gt_box is None else np.atleast_2d(gt_labels)
    gts = GroundTruthSet.build([] if gt_box is None else [gt_box], labels, 1)
    preds = make_preds([pred_box], [person_score], np.zeros((labels.shape[1], 1)))
    return cost_matrix(gts, preds, cfg)[0, 0]


class TestFocalLoss:
    def test_gamma_zero_is_weighted_bce(self):
        cfg = LossConfig(focal_alpha=0.5, focal_gamma=0.0)
        for logit in [-3.0, 0.0, 2.5]:
            p = 1 / (1 + math.exp(-logit))
            assert focal_loss(logit, 1, cfg) == pytest.approx(0.5 * -math.log(p), rel=1e-12)
            assert focal_loss(logit, 0, cfg) == pytest.approx(0.5 * -math.log(1 - p), rel=1e-12)

    def test_confident_positive_approaches_zero(self):
        cfg = LossConfig()
        assert focal_loss(50.0, 1, cfg) < 1e-20
        assert focal_loss(1000.0, 1, cfg) == 0.0

    def test_midpoint_value(self):
        # p = 0.5: alpha * 0.25 * ln 2
        cfg = LossConfig(focal_alpha=0.25, focal_gamma=2.0)
        expected = 0.25 * 0.25 * math.log(2.0)
        assert focal_loss(0.0, 1, cfg) == pytest.approx(expected, abs=1e-12)

    def test_extreme_logits_finite(self):
        cfg = LossConfig()
        for logit in [-1000.0, 1000.0]:
            for target in (0, 1):
                assert math.isfinite(focal_loss(logit, target, cfg))


class TestPairCost:
    def test_padding_target_costs_zero(self):
        cfg = LossConfig()
        box = BoundingBox(0.1, 0.1, 0.5, 0.5)
        assert pair_cost(None, None, box, 0.9, cfg) == 0.0

    def test_perfect_prediction_near_zero(self):
        cfg = LossConfig()
        box = BoundingBox(0.1, 0.1, 0.5, 0.5)
        cost = pair_cost(box, np.array([1.0]), box, 1.0 - 1e-9, cfg)
        assert cost < 1e-4

    def test_composed_hand_value(self):
        # focal(0,1) + 5 * l1 + 2 * (1 - giou) for the half-overlap case
        cfg = LossConfig(focal_alpha=0.25, focal_gamma=2.0, lambda_l1=5.0, lambda_giou=2.0)
        gt = BoundingBox(0, 0, 1, 1)
        pred = BoundingBox(0, 0, 0.5, 1)
        h_prob = 0.5  # logit 0
        expected = 0.25 * 0.25 * math.log(2.0) + 5.0 * 0.5 + 2.0 * 0.5
        got = pair_cost(gt, np.array([1.0]), pred, h_prob, cfg)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_nonnegative_for_calibrated_scores(self):
        cfg = LossConfig()
        gen = RngStream(17).generator()
        for _ in range(200):
            c = gen.uniform(0, 0.6, size=(2, 2))
            a = BoundingBox(c[0, 0], c[0, 1], c[0, 0] + 0.3, c[0, 1] + 0.3)
            b = BoundingBox(c[1, 0], c[1, 1], c[1, 0] + 0.2, c[1, 1] + 0.2)
            assert pair_cost(a, np.array([1.0]), b, gen.uniform(0.01, 0.99), cfg) >= 0.0


class TestHungarian:
    def test_diagonal_dominant_identity(self):
        cost = np.full((4, 4), 10.0)
        np.fill_diagonal(cost, 0.0)
        assert hungarian(cost).sigma == (0, 1, 2, 3)

    def test_two_by_two_swap(self):
        res = hungarian(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert res.sigma == (1, 0)
        assert res.total_cost == pytest.approx(2.0)

    def test_cost_matches_brute_force(self):
        gen = RngStream(23).generator()
        for k in range(2, 7):
            for _ in range(60):
                cost = gen.random((k, k))
                res = hungarian(cost)
                best_cost, _ = brute_force_assignment(cost)
                assert res.total_cost == pytest.approx(best_cost, abs=1e-12)
                assert sorted(res.sigma) == list(range(k))

    def test_unique_optimum_assignment_matches(self):
        gen = RngStream(29).generator()
        for _ in range(100):
            cost = gen.random((5, 5)) + 1e-9 * gen.random((5, 5))
            res = hungarian(cost)
            _, best_perm = brute_force_assignment(cost)
            assert res.sigma == best_perm

    def test_negative_entries_supported(self):
        gen = RngStream(31).generator()
        cost = gen.uniform(-5, 5, size=(4, 4))
        best_cost, _ = brute_force_assignment(cost)
        assert hungarian(cost).total_cost == pytest.approx(best_cost, abs=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ContractError):
            hungarian(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ContractError):
            hungarian(np.array([[1.0, np.inf], [0.0, 1.0]]))


def random_instance(gen, k=4, ncls=3, gt_count=2):
    boxes, logits = [], gen.normal(size=(ncls, k))
    for _ in range(k):
        c = gen.uniform(0, 0.6, size=2)
        boxes.append(BoundingBox(c[0], c[1], c[0] + 0.3, c[1] + 0.3))
    preds = make_preds(boxes, gen.uniform(0.1, 0.95, size=k), logits)
    gt_boxes = []
    for _ in range(gt_count):
        c = gen.uniform(0, 0.6, size=2)
        gt_boxes.append(BoundingBox(c[0], c[1], c[0] + 0.3, c[1] + 0.3))
    labels = (gen.random((gt_count, ncls)) < 0.4).astype(float)
    return GroundTruthSet.build(gt_boxes, labels, k), preds


class TestMatch:
    def test_no_targets_gives_zero_cost(self):
        gen = RngStream(37).generator()
        gts, preds = random_instance(gen, gt_count=0)
        gts = GroundTruthSet.build([], np.zeros((0, 3)), 4)
        res = match(gts, preds, LossConfig())
        assert res.total_cost == 0.0

    def test_full_bijection_matches_brute_force(self):
        cfg = LossConfig()
        gen = RngStream(41).generator()
        for _ in range(20):
            gts, preds = random_instance(gen, k=4, gt_count=4)
            res = match(gts, preds, cfg)
            best_cost, _ = brute_force_assignment(cost_matrix(gts, preds, cfg))
            assert res.total_cost == pytest.approx(best_cost, abs=1e-9)

    def test_single_target_takes_argmin(self):
        cfg = LossConfig()
        gen = RngStream(43).generator()
        gts, preds = random_instance(gen, k=4, gt_count=1)
        res = match(gts, preds, cfg)
        costs = cost_matrix(gts, preds, cfg)[0]
        assert res.sigma[0] == int(np.argmin(costs))

    @pytest.mark.parametrize("mode", ["person", "action", "both"])
    def test_cost_matrix_matches_scalar_oracle(self, mode):
        cfg = LossConfig(cost_mode=mode)
        gen = RngStream(67).generator()
        for _ in range(20):
            gts, preds = random_instance(gen, k=5, gt_count=3)
            got = cost_matrix(gts, preds, cfg)
            for i in range(5):
                for j in range(5):
                    if i >= gts.count:
                        assert got[i, j] == 0.0
                        continue
                    a, b = gts.boxes[i], preds.boxes[j]
                    expected = 5.0 * box_l1(a, b) + 2.0 * (1.0 - giou(a, b))
                    if mode != "action":
                        h = float(preds.person_scores[j])
                        expected += scalar_focal(math.log(h / (1.0 - h)), 1, cfg)
                    if mode != "person":
                        for k, label in enumerate(gts.labels[i]):
                            expected += scalar_focal(preds.action_logits[k, j], int(label), cfg)
                    assert got[i, j] == pytest.approx(expected, rel=1e-12)

    def test_matching_ignores_action_logits_in_person_mode(self):
        cfg = LossConfig(cost_mode="person")
        gen = RngStream(47).generator()
        for _ in range(100):
            gts, preds = random_instance(gen)
            sigma1 = match(gts, preds, cfg).sigma
            perturbed = make_preds(
                preds.boxes, preds.person_scores, gen.normal(scale=50, size=preds.action_logits.shape)
            )
            assert match(gts, perturbed, cfg).sigma == sigma1

    def test_action_mode_uses_logits(self):
        gen = RngStream(53).generator()
        gts, preds = random_instance(gen, k=3, gt_count=2)
        res = match(gts, preds, LossConfig(cost_mode="action"))
        assert sorted(res.sigma) == [0, 1, 2]

    def test_ground_truth_overflow_clips_to_largest(self, caplog):
        boxes = [
            BoundingBox(0.0, 0.0, 0.9, 0.9),
            BoundingBox(0.1, 0.1, 0.2, 0.2),
            BoundingBox(0.3, 0.3, 0.7, 0.7),
        ]
        labels = np.eye(3)
        gts = GroundTruthSet.build(boxes, labels, total=2)
        assert gts.count == 2
        assert gts.boxes[0].area > gts.boxes[1].area


class TestSetLoss:
    def test_all_padding_confident_negatives_vanish(self):
        gts = GroundTruthSet.build([], np.zeros((0, 2)), 3)
        logits = ad.Tensor(np.full((2, 3), -200.0))
        loss = set_loss(gts, logits, (0, 1, 2), LossConfig())
        assert loss.item() == pytest.approx(0.0, abs=1e-60)

    def test_invariant_under_joint_permutation(self):
        gen = RngStream(59).generator()
        gts, preds = random_instance(gen, k=4, gt_count=2)
        cfg = LossConfig()
        logits = preds.action_logits
        sigma = match(gts, preds, cfg).sigma
        base = set_loss(gts, ad.Tensor(logits), sigma, cfg).item()
        perm = [2, 0, 3, 1]  # prediction j moves to column perm[j]
        permuted = np.empty_like(logits)
        for j in range(4):
            permuted[:, perm[j]] = logits[:, j]
        sigma2 = tuple(perm[j] for j in sigma)
        assert set_loss(gts, ad.Tensor(permuted), sigma2, cfg).item() == base

    def test_hand_summation_oracle(self):
        cfg = LossConfig()
        gts = GroundTruthSet.build(
            [BoundingBox(0.1, 0.1, 0.4, 0.4), BoundingBox(0.5, 0.5, 0.9, 0.9)],
            np.array([[1.0, 0.0], [1.0, 1.0]]),
            2,
        )
        logits = np.array([[0.3, -0.7], [1.2, 0.4]])
        sigma = (1, 0)
        expected = 0.0
        for i, labels in enumerate(gts.labels):
            for k in range(2):
                expected += scalar_focal(logits[k, sigma[i]], int(labels[k]), cfg)
        got = set_loss(gts, ad.Tensor(logits), sigma, cfg).item()
        assert got == pytest.approx(expected, rel=1e-12)

    def test_gradient_reaches_only_logits(self):
        gen = RngStream(61).generator()
        gts, preds = random_instance(gen, k=3, gt_count=2)
        cfg = LossConfig()
        p = ad.Parameter("logits", preds.action_logits)
        sigma = match(gts, preds, cfg).sigma
        ad.backward(set_loss(gts, p.value, sigma, cfg))
        assert p.grad.shape == p.value.data.shape
        assert np.any(p.grad != 0)
