import csv
import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from sceneact import cli, synthdata
from sceneact import model as mdl
from sceneact.checkpoint import load_checkpoint, save_checkpoint
from sceneact.cli import main
from sceneact.config import RunConfig, config_from_dict, config_hash, load_config
from sceneact.errors import ConfigError, NanLossError
from sceneact.evaluation import write_report
from sceneact.longterm import AggregationWeights, WindowingConfig
from sceneact.training import evaluate_longterm, load_train_state, run_windowed


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


@pytest.fixture(scope="module")
def one_hot_fit(workspace, tmp_path_factory):
    """A long-term checkpoint fitted for no epochs at 4.1 s of support: 3 one-hot windows."""
    _root, _cfg, data_dir, out_dir = workspace
    root = tmp_path_factory.mktemp("support")
    windowing = WindowingConfig(long_before=1.0, long_after=1.0)
    cfg_path = write_config(root, dict(
        TINY, windowing=dataclasses.asdict(windowing),
        optimizer=dict(TINY["optimizer"], aggregation_epochs=0)))
    assert main(["train", "--config", str(cfg_path), "--dataset", str(data_dir),
                 "--out", str(root / "lt"), "--phase", "long",
                 "--checkpoint", str(out_dir / "best.ckpt")]) == 0
    return windowing, cfg_path, root / "lt" / "longterm.ckpt"


# former config fields, now constants of synthdata, training and matching
REMOVED_KEYS = [("scenario", k) for k in (
    "confidence_calibration", "momentary_span", "sustained_span", "object_probability",
    "pair_probability", "pair_distance_max", "min_separation", "box_size_range",
    "appearance_prototypes", "appearance_noise", "timeline_extent",
    "scene_dim", "grid_h", "grid_w", "grid_t",
)] + [("optimizer", k) for k in (
    "beta1", "beta2", "eps", "clip_norm", "augment_range", "aggregation_lr",
)] + [("loss", k) for k in ("cost_mode", "lambda_l1", "lambda_giou")]


class TestConfigLoading:
    @pytest.mark.parametrize("section,key", [("scenario", "typo_key")] + REMOVED_KEYS)
    def test_unknown_key_rejected(self, section, key):
        with pytest.raises(ConfigError, match=f"unknown keys.*{key}"):
            config_from_dict({section: {key: 3}})

    def test_unknown_keys_of_every_section_reported_together(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"scenario": {"bogus": 1}, "optimizer": {"nope": 2}})
        assert "scenario" in str(err.value) and "bogus" in str(err.value)
        assert "optimizer" in str(err.value) and "nope" in str(err.value)

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

    def test_partial_section_keeps_the_run_defaults(self):
        defaults = RunConfig()
        cfg = config_from_dict({"model": {"variant": "actor_only"}, "optimizer": {"epochs": 3}})
        assert cfg.model == dataclasses.replace(defaults.model, variant="actor_only")
        assert cfg.model.embed_dim != mdl.ModelConfig().embed_dim  # the desk size, not the table's
        assert cfg.optimizer == dataclasses.replace(defaults.optimizer, epochs=3)

    @pytest.mark.parametrize("key,value", [
        ("heads", 0), ("heads", -4), ("layers", -2), ("dropout", 1.0), ("dropout", -0.1),
        ("embed_dim", 0), ("ffn_dim", 0), ("num_classes", 0), ("num_classes", 6),
    ])
    def test_model_bounds_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_dict({"model": {key: value}})

    @pytest.mark.parametrize("section,key,value", [
        ("scenario", "box_jitter", -1.0), ("scenario", "num_actors", [3, 1]),
        ("scenario", "num_actors", [1]), ("scenario", "scene_noise", float("nan")),
        ("scenario", "signature_magnitude", float("inf")), ("scenario", "train_clips", 0),
        ("scenario", "train_clips", -3), ("scenario", "eval_clips", 0),
        ("optimizer", "lr", float("nan")), ("windowing", "stride", float("nan")),
        ("windowing", "t_before", -0.5), ("windowing", "t_after", -0.5),
        ("optimizer", "aggregation_epochs", -3), ("optimizer", "weight_decay", -1.0),
        ("optimizer", "decay_factor", -2.0), ("optimizer", "decay_factor", 0.0),
    ], ids=str)
    def test_run_bounds_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_dict({section: {key: value}})

    @pytest.mark.parametrize("seed", [-1, 2**64, 7 + 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # RngStream keys on the low 64 bits, so such a seed would alias another
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"seed": seed})

    def test_int_stands_for_float_and_list_gives_tuple(self):
        cfg = config_from_dict({"optimizer": {"lr": 1}, "model": {"dropout": 0},
                                "scenario": {"num_actors": [1, 3]}})
        assert (cfg.optimizer.lr, cfg.model.dropout) == (1, 0)
        assert cfg.scenario.num_actors == (1, 3)
        assert type(cfg.optimizer.lr) is float and type(cfg.model.dropout) is float
        same = config_from_dict({"optimizer": {"lr": 1.0}, "model": {"dropout": 0.0},
                                 "scenario": {"num_actors": [1, 3]}})
        assert config_hash(cfg) == config_hash(same)


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

    def test_bad_model_config_exits_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, dict(TINY, model=dict(TINY["model"], heads=0)))
        rc = main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err and not (tmp_path / "d").exists()

    def test_odd_width_with_scene_tokens_exits_1(self, tmp_path, capsys):
        # the scene tokens' sinusoidal code needs an even width; actor_only has none
        cfg_path = write_config(tmp_path, dict(TINY, model={"embed_dim": 9, "heads": 3}))
        rc = main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert rc == 1 and not (tmp_path / "d").exists()
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "model.embed_dim" in errors[0]
        blind = dict(TINY, model={"embed_dim": 9, "heads": 3, "variant": "actor_only"})
        assert main(["generate", "--config", str(write_config(tmp_path, blind)),
                     "--out", str(tmp_path / "d")]) == 0

    def test_model_scenario_class_mismatch_exits_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, dict(TINY, model=dict(TINY["model"], num_classes=6)))
        rc = main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "num_classes" in capsys.readouterr().err and not (tmp_path / "d").exists()

    def test_more_classes_than_scene_token_length_exits_1(self, tmp_path, capsys):
        # one orthonormal signature per class needs num_classes <= SCENE_DIM
        cfg_path = write_config(tmp_path, {"seed": 3, "scenario": {"num_classes": 33},
                                           "model": {"num_classes": 33}})
        rc = main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "num_classes" in capsys.readouterr().err and not (tmp_path / "d").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("model", "embed_dim", "x"), ("model", "heads", 2.5), ("model", "variant", 3),
        ("model", "layers", True), ("scenario", "num_actors", 2),
        ("scenario", "num_actors", ["a", 2]), ("model", "embed_dim", 0),
        ("optimizer", "epochs", 1.5), ("optimizer", "batch_size", True),
        ("model", "dropout", False), ("optimizer", "lr", None), ("windowing", "t_before", True),
        ("scenario", "num_actors", [True, 2]),
    ], ids=str)
    def test_mistyped_value_exits_1(self, tmp_path, capsys, section, key, value):
        cfg_path = write_config(tmp_path, dict(TINY, **{section: dict(TINY.get(section, {}),
                                                                      **{key: value})}))
        rc = main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert rc == 1 and not (tmp_path / "d").exists()
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "Traceback" not in err
        assert str(cfg_path) in errors[0] and f"{section}.{key}" in errors[0]

    def test_seed_refusal_names_the_file(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, dict(TINY, seed=-1))
        rc = main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert rc == 1 and not (tmp_path / "d").exists()
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "Traceback" not in err
        assert str(cfg_path) in errors[0] and "seed" in errors[0]

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

    def test_train_config_scenario_must_match_manifest(self, workspace, tmp_path, monkeypatch,
                                                       capsys):
        _root, _cfg, data_dir, _out = workspace
        other = dict(TINY, seed=TINY["seed"] + 1,
                     scenario=dict(TINY["scenario"], train_clips=5))
        cfg_path = write_config(tmp_path, other)
        calls = []
        monkeypatch.setattr(cli, "train_short_term", lambda *a, **kw: calls.append(a))
        rc = main(["train", "--config", str(cfg_path), "--dataset", str(data_dir),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert calls == []
        err = capsys.readouterr().err
        assert "'seed'" in err and "'train_clips'" in err


class TestCheckpointMatchesRun:
    """A checkpoint runs only against the scenario, and on resume the model, it was made for."""

    @pytest.fixture(scope="class")
    def other_dims(self, tmp_path_factory):
        data_dir = tmp_path_factory.mktemp("dims") / "data"
        cfg_path = write_config(data_dir.parent,
                                dict(TINY, scenario=dict(TINY["scenario"], actor_dim=16)))
        assert main(["generate", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
        return data_dir

    def test_resume_with_other_model_rejected(self, workspace, tmp_path, monkeypatch, capsys):
        _root, _cfg, data_dir, out_dir = workspace
        cfg_path = write_config(tmp_path, dict(TINY, model={"heads": 2, "dropout": 0.3}))
        calls = []
        monkeypatch.setattr(cli, "train_short_term", lambda *a, **kw: calls.append(a))
        rc = main(["train", "--config", str(cfg_path), "--dataset", str(data_dir),
                   "--out", str(tmp_path / "run"), "--resume", str(out_dir / "last.ckpt")])
        assert rc == 1
        assert calls == []
        err = capsys.readouterr().err
        assert str(out_dir / "last.ckpt") in err
        assert "'embed_dim'" in err and "'layers'" in err and "'dropout'" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [
        ["eval", "--out", "{tmp}/eval"],
        ["inspect", "--clip", "eval_0000", "--attention", "{tmp}/attn.csv"],
        ["train", "--phase", "long", "--out", "{tmp}/lt"],
    ], ids=["eval", "inspect", "train_long"])
    def test_other_scenario_rejected(self, workspace, other_dims, tmp_path, capsys, argv):
        _root, _cfg, _data, out_dir = workspace
        rc = main([a.format(tmp=tmp_path) for a in argv]
                  + ["--checkpoint", str(out_dir / "best.ckpt"), "--dataset", str(other_dims)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "'actor_dim'" in err and str(other_dims) in err
        assert not (tmp_path / "attn.csv").exists() and not (tmp_path / "eval").exists()
        assert not (tmp_path / "lt").exists()


class TestNanAbort:
    def test_diagnostics_written_under_out(self, workspace, tmp_path, monkeypatch):
        _root, cfg_path, data_dir, _out = workspace

        def diverge(*_a, **_kw):
            raise NanLossError("non-finite loss", diagnostics={"step": 3})

        monkeypatch.setattr(cli, "train_short_term", diverge)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg_path), "--dataset", str(data_dir),
                   "--out", str(out)])
        assert rc == 2
        assert json.loads((out / "nan_abort.json").read_text()) == {"step": 3}
        assert list(cwd.iterdir()) == []


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

    def test_eval_generates_only_the_eval_split(self, workspace, tmp_path, monkeypatch):
        _root, _cfg, data_dir, out_dir = workspace
        argv = ["eval", "--checkpoint", str(out_dir / "best.ckpt"), "--dataset", str(data_dir),
                "--topk", "--threshold", "0.5", "--strategy", "weighted", "--strategy", "avg"]
        generated = []
        make_clip = synthdata.generate_clip

        def counting(*args):
            generated.append(args[2])  # the clip id
            return make_clip(*args)

        monkeypatch.setattr(synthdata, "generate_clip", counting)
        assert main(argv + ["--out", str(tmp_path / "eval_split")]) == 0
        assert generated == [f"eval_{i:04d}" for i in range(TINY["scenario"]["eval_clips"])]
        # reference: the same eval on clips generated with the train split
        both = cli.generate_dataset
        monkeypatch.setattr(cli, "generate_dataset", lambda cfg, with_train=True: both(cfg))
        assert main(argv + ["--out", str(tmp_path / "both_splits")]) == 0
        assert "train_0000" in generated
        reports = sorted((tmp_path / "eval_split").iterdir())
        assert len(reports) == 8
        for path in reports:
            assert path.read_bytes() == (tmp_path / "both_splits" / path.name).read_bytes()

    def test_eval_strategy_uniform_weighted_equals_avg(self, workspace, tmp_path):
        _root, _cfg, data_dir, out_dir = workspace
        eval_dir = tmp_path / "strat"
        assert main([
            "eval", "--checkpoint", str(out_dir / "best.ckpt"), "--dataset", str(data_dir),
            "--out", str(eval_dir), "--strategy", "avg", "--strategy", "max",
        ]) == 0
        assert (eval_dir / "strategy_avg_summary.txt").exists()

    def test_eval_fuses_on_the_fitted_windowing(self, workspace, tmp_path):
        # stride 2 over 4 s spans: the manifest's offsets -2..2, on other windows
        _root, _cfg, data_dir, out_dir = workspace
        fitted = WindowingConfig(t_before=0.5, long_before=4.0, long_after=4.0, stride=2.0)
        cfg_path = write_config(tmp_path, dict(TINY, windowing=dataclasses.asdict(fitted)))
        lt_dir = tmp_path / "lt"
        assert main(["train", "--config", str(cfg_path), "--dataset", str(data_dir),
                     "--out", str(lt_dir), "--phase", "long",
                     "--checkpoint", str(out_dir / "best.ckpt")]) == 0
        lt_ckpt = lt_dir / "longterm.ckpt"
        eval_dir = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(lt_ckpt), "--dataset", str(data_dir),
                     "--out", str(eval_dir), "--strategy", "weighted", "--strategy", "avg"]) == 0
        cfg = load_config(cfg_path)
        state, model_cfg, scenario = load_train_state(lt_ckpt, cfg.optimizer)
        clips = synthdata.generate_dataset(cfg.scenario, with_train=False).eval
        windowed = [run_windowed(state.params, model_cfg, c, fitted) for c in clips]
        ref_dir = tmp_path / "ref"
        ref_dir.mkdir()
        for strategy in ("weighted", "avg"):
            report = evaluate_longterm(windowed, scenario, state.aggregation, strategy=strategy)
            write_report(report, ref_dir, f"strategy_{strategy}")
        names = sorted(p.name for p in eval_dir.iterdir())
        assert names == sorted(p.name for p in ref_dir.iterdir())
        for name in names:
            assert (eval_dir / name).read_bytes() == (ref_dir / name).read_bytes()

    def test_one_hot_fit_at_a_support_fuses_the_keyframe_window(self, workspace, one_hot_fit,
                                                                tmp_path):
        _root, _cfg, data_dir, _out = workspace
        windowing, cfg_path, lt_ckpt = one_hot_fit
        state, model_cfg, _scenario = load_train_state(lt_ckpt, load_config(cfg_path).optimizer)
        assert state.aggregation.windowing == windowing
        assert np.array_equal(state.aggregation.weights,
                              AggregationWeights.initial(windowing, model_cfg.num_classes).weights)
        eval_dir = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(lt_ckpt), "--dataset", str(data_dir),
                     "--out", str(eval_dir), "--topk", "--strategy", "weighted"]) == 0
        fused = (eval_dir / "strategy_weighted_per_class.csv").read_text().splitlines()[1:]
        short = (eval_dir / "sampling_topk_per_class.csv").read_text().splitlines()[1:]
        assert [r.split(",")[3] for r in fused] == [r.split(",")[3] for r in short]

    @pytest.mark.parametrize("sweep", [
        ["--threshold", "abc"], ["--threshold", "0.5", "--threshold", "abc"],
        ["--threshold", "nan"], ["--threshold", "1.5"], ["--threshold", "-0.1"],
        ["--strategy", "topk", "--topk-k", "0"], ["--strategy", "topk", "--topk-k", "-5"],
    ], ids=" ".join)
    def test_eval_bad_sweep_value_writes_nothing(self, workspace, tmp_path, capsys, sweep):
        _root, _cfg, data_dir, out_dir = workspace
        out = tmp_path / "eval"
        rc = main(["eval", "--checkpoint", str(out_dir / "best.ckpt"), "--dataset",
                   str(data_dir), "--out", str(out)] + sweep)
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_meta_mismatch_rejected(self, workspace, tmp_path, capsys):
        _root, _cfg, data_dir, out_dir = workspace
        raw = (out_dir / "best.ckpt").read_bytes()
        nl = raw.index(b"\n")
        header = json.loads(raw[:nl])
        header["meta"]["model"]["pre_norm"] = True
        del header["meta"]["model"]["dropout"]
        edited = tmp_path / "old.ckpt"
        edited.write_bytes(json.dumps(header).encode() + raw[nl:])
        rc = main(["eval", "--checkpoint", str(edited), "--dataset", str(data_dir),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(edited) in err and "'pre_norm'" in err and "'dropout'" in err

    @pytest.mark.parametrize("flags", [
        ["--phase", "long"],
        ["--checkpoint", "{tmp}/missing.ckpt"],
        ["--phase", "long", "--checkpoint", "{run}/last.ckpt", "--resume", "{tmp}/missing.ckpt"],
    ], ids=["long_without_checkpoint", "short_with_checkpoint", "long_with_resume"])
    def test_long_phase_requires_checkpoint(self, workspace, tmp_path, capsys, flags):
        _root, cfg_path, data_dir, out_dir = workspace
        out = tmp_path / "lt"
        rc = main(["train", "--config", str(cfg_path), "--dataset", str(data_dir),
                   "--out", str(out)] + [f.format(tmp=tmp_path, run=out_dir) for f in flags])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

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

    def test_inspect_last_layer_queries_actor_rows_only(self, workspace, tmp_path):
        _root, _cfg, data_dir, _out = workspace
        two_layer = dict(TINY, model=dict(TINY["model"], layers=2))
        cfg_path = write_config(tmp_path, two_layer)
        run_dir = tmp_path / "run2"
        assert main(["train", "--config", str(cfg_path), "--dataset", str(data_dir),
                     "--out", str(run_dir)]) == 0
        out_csv = tmp_path / "attn.csv"
        assert main(["inspect", "--checkpoint", str(run_dir / "best.ckpt"), "--dataset",
                     str(data_dir), "--clip", "eval_0000", "--attention", str(out_csv)]) == 0
        queries, keys = {}, {}
        for r in csv.DictReader(out_csv.open()):
            queries.setdefault(r["layer"], set()).add(int(r["query"]))
            keys.setdefault(r["layer"], set()).add(int(r["key"]))
        k = TINY["scenario"]["proposal_count"]
        tokens = len(keys["0"])
        assert tokens > k
        assert queries["0"] == keys["0"] == set(range(tokens))
        assert queries["1"] == set(range(k))
        assert keys["1"] == set(range(tokens))

    def test_inspect_non_unified_exports_cross_attention_only(self, workspace, tmp_path):
        _root, _cfg, data_dir, _out = workspace
        enc_dec = dict(TINY, model=dict(TINY["model"], layers=2, variant="encoder_decoder"))
        cfg_path = write_config(tmp_path, enc_dec)
        run_dir = tmp_path / "run_ed"
        assert main(["train", "--config", str(cfg_path), "--dataset", str(data_dir),
                     "--out", str(run_dir)]) == 0
        out_csv = tmp_path / "attn.csv"
        assert main(["inspect", "--checkpoint", str(run_dir / "best.ckpt"), "--dataset",
                     str(data_dir), "--clip", "eval_0000", "--attention", str(out_csv)]) == 0
        scenario = config_from_dict(enc_dec).scenario
        k = scenario.proposal_count
        n = synthdata.GRID_H * synthdata.GRID_W * synthdata.GRID_T
        queries, keys, sums = {}, {}, {}
        for r in csv.DictReader(out_csv.open()):
            head = (r["layer"], r["head"])
            queries.setdefault(head, set()).add(int(r["query"]))
            keys.setdefault(head, set()).add(int(r["key"]))
            row = head + (r["query"],)
            sums[row] = sums.get(row, 0.0) + float(r["weight"])
        assert set(queries) == {(str(l), str(h)) for l in range(2) for h in range(2)}
        for head in queries:
            assert queries[head] == set(range(k))
            assert keys[head] == set(range(n))
        # one row set per (layer, head): an exported self-attention would double these
        assert len(sums) == 2 * 2 * k
        for total in sums.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_inspect_unknown_clip(self, workspace, tmp_path):
        _root, _cfg, data_dir, out_dir = workspace
        rc = main(["inspect", "--checkpoint", str(out_dir / "best.ckpt"), "--dataset",
                   str(data_dir), "--clip", "absent", "--attention",
                   str(tmp_path / "a.csv")])
        assert rc == 1


class TestTopkK:
    def test_topk_k_above_window_count_refused_before_out(self, workspace, tmp_path, capsys):
        _root, _cfg, data_dir, out_dir = workspace
        argv = ["eval", "--checkpoint", str(out_dir / "best.ckpt"), "--dataset", str(data_dir),
                "--strategy", "avg", "--strategy", "topk"]
        # TINY's 2 s spans at a 1 s stride give 5 windows
        assert main(argv + ["--out", str(tmp_path / "five"), "--topk-k", "5"]) == 0
        assert (tmp_path / "five" / "strategy_topk_per_class.csv").read_text() == (
            tmp_path / "five" / "strategy_avg_per_class.csv").read_text()
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "six"), "--topk-k", "6"]) == 1
        assert "error: --topk-k 6 exceeds the 5 windows" in capsys.readouterr().err
        assert not (tmp_path / "six").exists()

    def test_topk_k_checked_against_the_fitted_windows(self, workspace, one_hot_fit, tmp_path,
                                                       capsys):
        # the manifest's windowing has 5 windows, the fitted one 3
        _root, _cfg, data_dir, _out = workspace
        _windowing, _cfg_path, lt_ckpt = one_hot_fit
        argv = ["eval", "--checkpoint", str(lt_ckpt), "--dataset", str(data_dir),
                "--strategy", "avg", "--strategy", "topk"]
        assert main(argv + ["--out", str(tmp_path / "three"), "--topk-k", "3"]) == 0
        assert (tmp_path / "three" / "strategy_topk_per_class.csv").read_text() == (
            tmp_path / "three" / "strategy_avg_per_class.csv").read_text()
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "four"), "--topk-k", "4"]) == 1
        assert "error: --topk-k 4 exceeds the 3 windows" in capsys.readouterr().err
        assert not (tmp_path / "four").exists()

    def test_topk_k_unchecked_without_topk_strategy(self, workspace, tmp_path):
        _root, _cfg, data_dir, out_dir = workspace
        assert main(["eval", "--checkpoint", str(out_dir / "best.ckpt"), "--dataset",
                     str(data_dir), "--out", str(tmp_path / "e"), "--strategy", "max",
                     "--topk-k", "50"]) == 0


class TestMalformedFiles:
    """A damaged input file exits 1 with one ``error:`` line and writes nothing."""

    def run_eval(self, data_dir, checkpoint, out, capsys):
        rc = main(["eval", "--checkpoint", str(checkpoint), "--dataset", str(data_dir),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
        assert "Traceback" not in err
        assert not out.exists()
        return err

    def test_truncated_checkpoint(self, workspace, tmp_path, capsys):
        _root, _cfg, data_dir, out_dir = workspace
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes((out_dir / "best.ckpt").read_bytes()[:-100])
        err = self.run_eval(data_dir, cut, tmp_path / "x", capsys)
        assert str(cut) in err and "truncated" in err

    def test_manifest_not_json(self, workspace, tmp_path, capsys):
        _root, _cfg, data_dir, out_dir = workspace
        bad = tmp_path / "data"
        shutil.copytree(data_dir, bad)
        (bad / "manifest.json").write_text('{"config": ')
        err = self.run_eval(bad, out_dir / "best.ckpt", tmp_path / "x", capsys)
        assert "not valid JSON" in err

    def test_manifest_without_config(self, workspace, tmp_path, capsys):
        _root, _cfg, data_dir, out_dir = workspace
        bad = tmp_path / "data"
        shutil.copytree(data_dir, bad)
        manifest = json.loads((bad / "manifest.json").read_text())
        del manifest["config"]
        (bad / "manifest.json").write_text(json.dumps(manifest))
        err = self.run_eval(bad, out_dir / "best.ckpt", tmp_path / "x", capsys)
        assert "no run config" in err

    def test_train_refuses_mistyped_config(self, workspace, tmp_path, capsys):
        _root, _cfg, data_dir, _out = workspace
        cfg_path = write_config(tmp_path, dict(TINY, optimizer=dict(TINY["optimizer"],
                                                                    epochs=1.5)))
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg_path), "--dataset", str(data_dir),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and not out.exists() and "Traceback" not in err
        assert "optimizer.epochs" in err

    def test_manifest_value_refused_before_hash_check(self, workspace, tmp_path, capsys):
        _root, _cfg, data_dir, out_dir = workspace
        bad = tmp_path / "data"
        shutil.copytree(data_dir, bad)
        manifest = json.loads((bad / "manifest.json").read_text())
        manifest["config"]["optimizer"]["batch_size"] = True
        blob = json.dumps(manifest["config"], sort_keys=True).encode("utf-8")
        manifest["config_hash"] = hashlib.sha256(blob).hexdigest()  # consistent, but mistyped
        (bad / "manifest.json").write_text(json.dumps(manifest))
        err = self.run_eval(bad, out_dir / "best.ckpt", tmp_path / "x", capsys)
        assert str(bad / "manifest.json") in err and "optimizer.batch_size" in err
        assert "hash mismatch" not in err

    @staticmethod
    def edit_header(source, target, edit):
        raw = source.read_bytes()
        nl = raw.index(b"\n")
        header = json.loads(raw[:nl])
        target.write_bytes(json.dumps(edit(header)).encode() + raw[nl:])

    def test_header_not_an_object(self, workspace, tmp_path, capsys):
        _root, _cfg, data_dir, out_dir = workspace
        bad = tmp_path / "bad.ckpt"
        self.edit_header(out_dir / "best.ckpt", bad, lambda header: [1])
        err = self.run_eval(data_dir, bad, tmp_path / "x", capsys)
        assert "not a JSON object" in err

    def test_header_without_entries(self, workspace, tmp_path, capsys):
        _root, _cfg, data_dir, out_dir = workspace
        bad = tmp_path / "bad.ckpt"
        self.edit_header(out_dir / "best.ckpt", bad,
                         lambda header: {k: v for k, v in header.items() if k != "entries"})
        err = self.run_eval(data_dir, bad, tmp_path / "x", capsys)
        assert "entries" in err

    @pytest.mark.parametrize("key", ["section", "name", "shape", "offset"])
    def test_entry_missing_key(self, workspace, tmp_path, capsys, key):
        _root, _cfg, data_dir, out_dir = workspace
        bad = tmp_path / "bad.ckpt"

        def drop(header):
            del header["entries"][0][key]
            return header

        self.edit_header(out_dir / "best.ckpt", bad, drop)
        err = self.run_eval(data_dir, bad, tmp_path / "x", capsys)
        assert "malformed entry" in err and repr(key) in err

    @staticmethod
    def edit_sections(source, target, edit):
        sections, meta = load_checkpoint(source)
        edit(sections)
        save_checkpoint(target, sections, meta)

    @pytest.mark.parametrize("section", ["model", "optimizer", "progress"])
    def test_missing_section(self, workspace, tmp_path, capsys, section):
        _root, _cfg, data_dir, out_dir = workspace
        bad = tmp_path / "bad.ckpt"
        self.edit_sections(out_dir / "best.ckpt", bad, lambda sections: sections.pop(section))
        err = self.run_eval(data_dir, bad, tmp_path / "x", capsys)
        assert f"no {section} section" in err

    def test_model_names_differ_from_variant(self, workspace, tmp_path, capsys):
        _root, _cfg, data_dir, out_dir = workspace
        bad = tmp_path / "bad.ckpt"

        def rename(sections):
            sections["model"]["head.fc2.bias"] = sections["model"].pop("head.fc2.b")

        self.edit_sections(out_dir / "best.ckpt", bad, rename)
        err = self.run_eval(data_dir, bad, tmp_path / "x", capsys)
        assert "'head.fc2.bias'" in err and "'head.fc2.b'" in err

    @pytest.mark.parametrize("section,name", [("model", "embed.geom"),
                                              ("optimizer", "m.embed.geom"),
                                              ("progress", "epoch")])
    def test_array_of_wrong_shape(self, workspace, tmp_path, capsys, section, name):
        _root, _cfg, data_dir, out_dir = workspace
        bad = tmp_path / "bad.ckpt"

        def widen(sections):
            sections[section][name] = np.zeros(sections[section][name].size + 1)

        self.edit_sections(out_dir / "best.ckpt", bad, widen)
        err = self.run_eval(data_dir, bad, tmp_path / "x", capsys)
        assert f"{section}/{name} has shape" in err

    @pytest.mark.parametrize("section,key,value", [
        ("model", "embed_dim", "x"), ("model", "heads", 2.5), ("model", "variant", 3),
        ("model", "layers", True), ("scenario", "num_actors", 2),
        ("scenario", "num_actors", ["a", 2]), ("model", "embed_dim", 0),
    ], ids=str)
    def test_metadata_value_refused(self, workspace, tmp_path, capsys, section, key, value):
        _root, _cfg, data_dir, out_dir = workspace
        bad = tmp_path / "bad.ckpt"

        def set_value(header):
            header["meta"][section][key] = value
            return header

        self.edit_header(out_dir / "best.ckpt", bad, set_value)
        err = self.run_eval(data_dir, bad, tmp_path / "x", capsys)
        assert str(bad) in err and key in err

    @pytest.mark.parametrize("name,value", [
        ("epoch", np.nan), ("epoch", -1.0), ("epoch", 2.5), ("step", np.inf),
        ("best_map", np.nan),
    ], ids=str)
    def test_progress_value_refused(self, workspace, tmp_path, capsys, name, value):
        _root, _cfg, data_dir, out_dir = workspace
        bad = tmp_path / "bad.ckpt"

        def set_value(sections):
            sections["progress"][name] = np.array([value])

        self.edit_sections(out_dir / "best.ckpt", bad, set_value)
        err = self.run_eval(data_dir, bad, tmp_path / "x", capsys)
        assert str(bad) in err and f"progress/{name}" in err

    @pytest.mark.parametrize("section,name,value", [
        ("model", "head.fc2.b", np.nan), ("optimizer", "t", np.nan),
        ("optimizer", "t", 1.5), ("optimizer", "t", -3.0),
    ], ids=str)
    def test_array_value_refused(self, workspace, tmp_path, capsys, section, name, value):
        _root, _cfg, data_dir, out_dir = workspace
        bad = tmp_path / "bad.ckpt"

        def set_value(sections):
            sections[section][name].flat[0] = value

        self.edit_sections(out_dir / "best.ckpt", bad, set_value)
        err = self.run_eval(data_dir, bad, tmp_path / "x", capsys)
        assert str(bad) in err and f"{section}/{name}" in err

    def test_long_term_checkpoint_without_windowing_refused(self, workspace, tmp_path, capsys):
        # the old format: window offsets beside the weights, no windowing metadata
        _root, cfg_path, data_dir, out_dir = workspace
        lt_dir = tmp_path / "lt"
        assert main(["train", "--config", str(cfg_path), "--dataset", str(data_dir),
                     "--out", str(lt_dir), "--phase", "long",
                     "--checkpoint", str(out_dir / "best.ckpt")]) == 0
        sections, meta = load_checkpoint(lt_dir / "longterm.ckpt")
        sections["aggregation"]["offsets"] = np.arange(-2.0, 3.0)
        del meta["windowing"]
        old = tmp_path / "old.ckpt"
        save_checkpoint(old, sections, meta)
        capsys.readouterr()
        err = self.run_eval(data_dir, old, tmp_path / "x", capsys)
        assert str(old) in err and "windowing" in err


class TestActorOnly:
    """An actor_only checkpoint evaluates and inspects; window fusion on it is refused."""

    @pytest.fixture(scope="class")
    def blind_run(self, workspace):
        root, _cfg, data_dir, _out = workspace
        cfg_path = root / "actor_only.json"
        cfg_path.write_text(json.dumps(dict(TINY, model=dict(TINY["model"], layers=2,
                                                             variant="actor_only"))))
        run_dir = root / "blind"
        assert main(["train", "--config", str(cfg_path), "--dataset", str(data_dir),
                     "--out", str(run_dir)]) == 0
        return cfg_path, data_dir, run_dir / "best.ckpt"

    def test_checkpoint_holds_no_scene_projection(self, blind_run):
        _cfg, _data, ckpt = blind_run
        sections, meta = load_checkpoint(ckpt)
        assert meta["model"]["variant"] == "actor_only"
        assert "embed.scene" not in sections["model"] and "embed.actor" in sections["model"]

    @pytest.mark.parametrize("argv", [
        ["train", "--phase", "long", "--checkpoint", "{ckpt}"],
        ["eval", "--checkpoint", "{ckpt}", "--strategy", "avg"],
    ], ids=["train_long", "eval_strategy"])
    def test_window_fusion_refused_before_out(self, blind_run, tmp_path, capsys, argv):
        cfg_path, data_dir, ckpt = blind_run
        out = tmp_path / "x"
        rc = main([a.format(ckpt=ckpt) for a in argv]
                  + ["--dataset", str(data_dir), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "actor_only" in errors[0]
        assert not out.exists()

    def test_topk_eval_and_inspect_run(self, blind_run, tmp_path):
        _cfg, data_dir, ckpt = blind_run
        assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(data_dir),
                     "--out", str(tmp_path / "e"), "--topk", "--threshold", "0.5"]) == 0
        assert (tmp_path / "e" / "sampling_topk_per_class.csv").exists()
        out_csv = tmp_path / "attn.csv"
        assert main(["inspect", "--checkpoint", str(ckpt), "--dataset", str(data_dir),
                     "--clip", "eval_0000", "--attention", str(out_csv)]) == 0
        k = TINY["scenario"]["proposal_count"]
        pairs = {}
        for r in csv.DictReader(out_csv.open()):
            pairs.setdefault(r["layer"], set()).add((int(r["query"]), int(r["key"])))
        # every layer, the last included, is actor-to-actor only: K x K
        assert pairs == {str(l): {(q, key) for q in range(k) for key in range(k)}
                         for l in range(2)}
