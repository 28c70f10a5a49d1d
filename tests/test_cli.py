import csv
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from sceneact import cli
from sceneact.cli import main
from sceneact.config import config_from_dict, config_hash, load_config
from sceneact.errors import ConfigError


TINY = {
    "seed": 11,
    "scenario": {
        "train_clips": 6,
        "eval_clips": 3,
        "proposal_count": 6,
        "num_actors": [1, 2],
    },
    "model": {"embed_dim": 8, "layers": 1, "heads": 2, "ffn_dim": 16, "dropout": 0.0},
    "optimizer": {"epochs": 1, "batch_size": 3, "aggregation_epochs": 2},
    "windowing": {"long_before": 2.0, "long_after": 2.0},
}


def write_config(tmp_path, data=None) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data or TINY))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = write_config(root)
    data_dir = root / "data"
    out_dir = root / "run"
    assert main(["generate", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    assert main([
        "train", "--config", str(cfg_path), "--dataset", str(data_dir),
        "--out", str(out_dir),
    ]) == 0
    return root, cfg_path, data_dir, out_dir


class TestConfigLoading:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="typo_key"):
            config_from_dict({"scenario": {"typo_key": 3}})

    def test_unknown_top_level_rejected(self):
        with pytest.raises(ConfigError, match="extra"):
            config_from_dict({"extra": {}})

    def test_scenario_seed_must_come_from_top(self):
        with pytest.raises(ConfigError, match="top-level seed"):
            config_from_dict({"scenario": {"seed": 4}})

    def test_seed_propagates_to_scenario(self):
        cfg = config_from_dict({"seed": 123})
        assert cfg.scenario.seed == 123

    def test_hash_stable_and_sensitive(self):
        a = config_from_dict({"seed": 1})
        b = config_from_dict({"seed": 1})
        c = config_from_dict({"seed": 2})
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ConfigError, match="nope.json"):
            load_config(tmp_path / "nope.json")


class TestGenerate:
    def test_outputs_and_manifest(self, workspace):
        _root, _cfg, data_dir, _out = workspace
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert len(manifest["clips"]) == 9
        assert (data_dir / "train_gt.csv").exists()
        assert (data_dir / "eval_gt.csv").exists()

    def test_regeneration_identical_manifest(self, workspace, tmp_path):
        _root, cfg_path, data_dir, _out = workspace
        second = tmp_path / "data2"
        assert main(["generate", "--config", str(cfg_path), "--out", str(second)]) == 0
        assert (second / "manifest.json").read_text() == (data_dir / "manifest.json").read_text()
        assert (second / "train_gt.csv").read_bytes() == (data_dir / "train_gt.csv").read_bytes()

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        rc = main(["generate", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "absent.json" in capsys.readouterr().err

    def test_refuses_non_empty_dir_without_force(self, workspace, capsys):
        _root, cfg_path, data_dir, _out = workspace
        assert main(["generate", "--config", str(cfg_path), "--out", str(data_dir)]) == 1
        assert main(["generate", "--config", str(cfg_path), "--out", str(data_dir),
                     "--force"]) == 0


class TestDatasetManifest:
    def test_edited_config_rejected_before_generation(self, workspace, tmp_path, monkeypatch,
                                                      capsys):
        _root, _cfg, data_dir, _out = workspace
        edited = tmp_path / "data"
        shutil.copytree(data_dir, edited)
        manifest = json.loads((edited / "manifest.json").read_text())
        manifest["config"]["scenario"]["eval_clips"] += 1
        (edited / "manifest.json").write_text(json.dumps(manifest))
        calls = []
        monkeypatch.setattr(cli, "generate_dataset", lambda *a, **kw: calls.append(a))
        rc = main(["train", "--dataset", str(edited), "--out", str(tmp_path / "run")])
        assert rc == 1
        assert calls == []
        assert "config hash mismatch" in capsys.readouterr().err


class TestTrainEvalInspect:
    def test_train_artifacts(self, workspace):
        _root, _cfg, _data, out_dir = workspace
        assert (out_dir / "last.ckpt").exists()
        assert (out_dir / "best.ckpt").exists()
        assert (out_dir / "resolved_config.json").exists()
        log_text = (out_dir / "train_log.txt").read_text()
        assert "loss" in log_text and "map" in log_text

    def test_repeat_training_identical_checkpoints(self, workspace, tmp_path):
        _root, cfg_path, data_dir, out_dir = workspace
        second = tmp_path / "run2"
        assert main(["train", "--config", str(cfg_path), "--dataset", str(data_dir),
                     "--out", str(second)]) == 0
        assert (second / "last.ckpt").read_bytes() == (out_dir / "last.ckpt").read_bytes()

    def test_zero_lr_keeps_checkpoint_hash(self, workspace, tmp_path):
        _root, _cfg, data_dir, _out = workspace
        frozen = dict(TINY)
        frozen["optimizer"] = dict(TINY["optimizer"], lr=1e-30, epochs=1)
        cfg_path = write_config(tmp_path, frozen)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg_path), "--dataset", str(data_dir),
                     "--out", str(a_dir)]) == 0
        assert main(["train", "--config", str(cfg_path), "--dataset", str(data_dir),
                     "--out", str(b_dir)]) == 0
        assert (a_dir / "last.ckpt").read_bytes() == (b_dir / "last.ckpt").read_bytes()

    def test_eval_default_and_sweeps(self, workspace, tmp_path):
        _root, _cfg, data_dir, out_dir = workspace
        eval_dir = tmp_path / "eval"
        assert main([
            "eval", "--checkpoint", str(out_dir / "best.ckpt"), "--dataset", str(data_dir),
            "--out", str(eval_dir), "--topk", "--threshold", "0.9", "--threshold", "0.5",
        ]) == 0
        names = {p.name for p in eval_dir.iterdir()}
        assert "sampling_topk_summary.txt" in names
        assert "sampling_tau_0.9_per_class.csv" in names

    def test_eval_strategy_uniform_weighted_equals_avg(self, workspace, tmp_path):
        _root, _cfg, data_dir, out_dir = workspace
        eval_dir = tmp_path / "strat"
        assert main([
            "eval", "--checkpoint", str(out_dir / "best.ckpt"), "--dataset", str(data_dir),
            "--out", str(eval_dir), "--strategy", "avg", "--strategy", "max",
        ]) == 0
        assert (eval_dir / "strategy_avg_summary.txt").exists()

    def test_eval_support_single_window_equals_short_term(self, workspace, tmp_path):
        _root, _cfg, data_dir, out_dir = workspace
        d1, d2 = tmp_path / "sup", tmp_path / "topk"
        assert main(["eval", "--checkpoint", str(out_dir / "best.ckpt"), "--dataset",
                     str(data_dir), "--out", str(d1), "--support", "2.1"]) == 0
        assert main(["eval", "--checkpoint", str(out_dir / "best.ckpt"), "--dataset",
                     str(data_dir), "--out", str(d2), "--topk"]) == 0
        ap1 = (d1 / "support_2.1s_per_class.csv").read_text().splitlines()[1:]
        ap2 = (d2 / "sampling_topk_per_class.csv").read_text().splitlines()[1:]
        assert [r.split(",")[3] for r in ap1] == [r.split(",")[3] for r in ap2]

    def test_eval_variant_mismatch_rejected(self, workspace, tmp_path):
        _root, _cfg, data_dir, out_dir = workspace
        rc = main(["eval", "--checkpoint", str(out_dir / "best.ckpt"), "--dataset",
                   str(data_dir), "--out", str(tmp_path / "x"),
                   "--variant", "decoder_only"])
        assert rc == 1

    def test_long_phase_requires_checkpoint(self, workspace, tmp_path):
        _root, cfg_path, data_dir, _out = workspace
        rc = main(["train", "--config", str(cfg_path), "--dataset", str(data_dir),
                   "--out", str(tmp_path / "lt"), "--phase", "long"])
        assert rc == 1

    def test_long_phase_trains_weights(self, workspace, tmp_path):
        _root, cfg_path, data_dir, out_dir = workspace
        lt_dir = tmp_path / "lt"
        assert main(["train", "--config", str(cfg_path), "--dataset", str(data_dir),
                     "--out", str(lt_dir), "--phase", "long",
                     "--checkpoint", str(out_dir / "best.ckpt")]) == 0
        assert (lt_dir / "longterm.ckpt").exists()

    def test_inspect_attention_export(self, workspace, tmp_path):
        _root, _cfg, data_dir, out_dir = workspace
        out_csv = tmp_path / "attn.csv"
        assert main(["inspect", "--checkpoint", str(out_dir / "best.ckpt"), "--dataset",
                     str(data_dir), "--clip", "eval_0000", "--attention", str(out_csv)]) == 0
        rows = list(csv.DictReader(out_csv.open()))
        assert rows
        sums = {}
        for r in rows:
            key = (r["layer"], r["head"], r["query"])
            sums[key] = sums.get(key, 0.0) + float(r["weight"])
        for total in sums.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_inspect_unknown_clip(self, workspace, tmp_path):
        _root, _cfg, data_dir, out_dir = workspace
        rc = main(["inspect", "--checkpoint", str(out_dir / "best.ckpt"), "--dataset",
                   str(data_dir), "--clip", "absent", "--attention",
                   str(tmp_path / "a.csv")])
        assert rc == 1
