#!/usr/bin/env python3
"""Pin what five pipeline modes produce at --size 40 --seed 0.

The modes are hard labels; soft labels; n-best 3 with length penalty 0.5;
the chinese language config; and a fifth whose max_input_len truncates
every input. For each, the pinned values are every prediction text and
n-best score, report.json, the sha256 of the corpus, labels and vocab
files, and the loss_log.csv values. The checkpoint is left out: its
float64 weights can move in their last bits with the BLAS build.

    PYTHONPATH=src python3 scripts/pipeline_fixture.py

reruns the five pipelines and rewrites tests/fixtures/pipeline_size40.json;
tests/test_pipeline_fixture.py reruns them and compares.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from pickgen.corpus import read_jsonl
from run_pipeline import run_pipeline

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "pipeline_size40.json"
SIZE, SEED = 40, 0
# mode name -> (label mode, JSON config forwarded to every stage, or None)
MODES = {
    "hard": ("hard", None),
    "soft": ("soft", None),
    "nbest": ("hard", {"inference": {"nbest": 3, "length_penalty": 0.5}}),
    "chinese": ("hard", {"language": "chinese"}),
    # inputs run 13 to 19 ids: this cuts into every one's last context turn,
    # and into some incomplete utterances
    "truncated": ("hard", {"max_input_len": 8}),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def snapshot(work: Path) -> dict:
    """The pinned values of one pipeline work dir."""
    with open(work / "train" / "loss_log.csv") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh][1:]
    return {
        "sha256": {
            "corpus": _sha256(work / "synth" / "corpus.jsonl"),
            "labels": _sha256(work / "label" / "labeled.jsonl"),
            "vocab": _sha256(work / "train" / "vocab.json"),
        },
        "loss_log": [[int(e), int(s), float(lp), float(lg), float(j)]
                     for e, s, lp, lg, j in rows],
        "predictions": [record for _, record in
                        read_jsonl(str(work / "restore" / "predictions.jsonl"), ValueError)],
        "report": json.loads((work / "eval" / "report.json").read_text()),
    }


def run_mode(mode: str, root: Path) -> dict:
    """Run one mode's pipeline under root and return its snapshot."""
    label_mode, config = MODES[mode]
    config_path = None
    if config is not None:
        config_path = root / f"{mode}.json"
        config_path.write_text(json.dumps(config))
    work = root / mode
    if run_pipeline(work, SIZE, SEED, config_path, label_mode) != 0:
        raise RuntimeError(f"the {mode} pipeline failed")
    return snapshot(work)


def _layout(value, depth: int = 0) -> str:
    """JSON with the mode and section objects spread out and one list item
    (a loss row, a prediction record) per line."""
    pad = " " * (depth + 1)
    if isinstance(value, dict) and depth < 2:
        items = [f"{pad}{json.dumps(k)}: {_layout(v, depth + 1)}"
                 for k, v in sorted(value.items())]
        return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"
    if isinstance(value, list):
        items = [pad + json.dumps(v, sort_keys=True) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + " " * depth + "]"
    return json.dumps(value, sort_keys=True)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        pinned = {mode: run_mode(mode, Path(tmp)) for mode in MODES}
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(_layout(pinned) + "\n")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
