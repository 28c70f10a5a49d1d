"""Print one sha256 per artifact of a small end-to-end CLI run.

Runs ``generate`` -> ``train`` -> ``train --phase long`` ->
``eval --topk --threshold 0.5 --strategy weighted --strategy avg
--strategy max`` -> ``inspect`` in a temporary directory, on a seed-7
scenario of 40 train and 12 eval clips trained for 2 epochs, then
``eval --strategy topk --topk-k 3`` on the same ``longterm.ckpt``
(``topk_eval/``). Then it fits at a second geometry, ``train --phase
long`` with 2 s spans (``config_support.json``, ``support/``: 5 windows
where the default has 13), and runs ``eval --strategy weighted
--strategy avg`` on the checkpoint that writes (``support_eval/``). Last
come ``train`` and ``eval --topk`` on the same data for three more
variants: the actor_only ablation (``config_actor_only.json``, ``blind/``
and ``blind_eval/``), encoder_decoder, whose scene encoder and
cross-attention the others do not run (``config_encoder_decoder.json``,
``encdec/`` and ``encdec_eval/``), and decoder_only, whose actor stack
only cross-attends into the raw scene tokens
(``config_decoder_only.json``, ``deconly/`` and ``deconly_eval/``). It
prints
``<sha256>  <path>`` for every file the run wrote, paths relative to the
run directory. Two checkouts whose outputs should be byte-identical print
identical lines.

Usage, from the root of a checkout (it imports that checkout's ``src/``)::

    python3 tests/artifact_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sceneact.cli import main  # noqa: E402

CONFIG = {"seed": 7, "scenario": {"train_clips": 40, "eval_clips": 12},
          "optimizer": {"epochs": 2}}
BLIND_MODEL = {"variant": "actor_only"}  # the default run's sizes
ENCDEC_MODEL = {"variant": "encoder_decoder"}
DECONLY_MODEL = {"variant": "decoder_only"}
SUPPORT_WINDOWING = {"long_before": 2.0, "long_after": 2.0}


def run(root: Path) -> None:
    cfg = root / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    blind_cfg = root / "config_actor_only.json"
    blind_cfg.write_text(json.dumps(dict(CONFIG, model=BLIND_MODEL)))
    encdec_cfg = root / "config_encoder_decoder.json"
    encdec_cfg.write_text(json.dumps(dict(CONFIG, model=ENCDEC_MODEL)))
    deconly_cfg = root / "config_decoder_only.json"
    deconly_cfg.write_text(json.dumps(dict(CONFIG, model=DECONLY_MODEL)))
    support_cfg = root / "config_support.json"
    support_cfg.write_text(json.dumps(dict(CONFIG, windowing=SUPPORT_WINDOWING)))
    (data, short, long, evals, topk_evals, support, support_evals, blind, blind_evals, encdec,
     encdec_evals, deconly, deconly_evals) = (str(root / d) for d in (
        "data", "short", "long", "eval", "topk_eval", "support", "support_eval", "blind",
        "blind_eval", "encdec", "encdec_eval", "deconly", "deconly_eval"))
    commands = [
        ["generate", "--config", str(cfg), "--out", data],
        ["train", "--dataset", data, "--out", short],
        ["train", "--dataset", data, "--out", long, "--phase", "long",
         "--checkpoint", f"{short}/best.ckpt"],
        ["eval", "--dataset", data, "--checkpoint", f"{long}/longterm.ckpt", "--out", evals,
         "--topk", "--threshold", "0.5",
         "--strategy", "weighted", "--strategy", "avg", "--strategy", "max"],
        ["eval", "--dataset", data, "--checkpoint", f"{long}/longterm.ckpt", "--out",
         topk_evals, "--strategy", "topk", "--topk-k", "3"],
        ["inspect", "--dataset", data, "--checkpoint", f"{short}/best.ckpt",
         "--clip", "eval_0000", "--attention", str(root / "inspect" / "attention.csv")],
        ["train", "--config", str(support_cfg), "--dataset", data, "--out", support,
         "--phase", "long", "--checkpoint", f"{short}/best.ckpt"],
        ["eval", "--dataset", data, "--checkpoint", f"{support}/longterm.ckpt",
         "--out", support_evals, "--strategy", "weighted", "--strategy", "avg"],
        ["train", "--config", str(blind_cfg), "--dataset", data, "--out", blind],
        ["eval", "--dataset", data, "--checkpoint", f"{blind}/best.ckpt", "--out", blind_evals,
         "--topk"],
        ["train", "--config", str(encdec_cfg), "--dataset", data, "--out", encdec],
        ["eval", "--dataset", data, "--checkpoint", f"{encdec}/best.ckpt", "--out",
         encdec_evals, "--topk"],
        ["train", "--config", str(deconly_cfg), "--dataset", data, "--out", deconly],
        ["eval", "--dataset", data, "--checkpoint", f"{deconly}/best.ckpt", "--out",
         deconly_evals, "--topk"],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"sceneact {argv[0]} exited {code}")


def main_digests() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        run(root)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root)}")


if __name__ == "__main__":
    main_digests()
