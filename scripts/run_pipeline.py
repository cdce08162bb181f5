#!/usr/bin/env python3
"""Run the full pipeline into one directory:

    synth -> label -> train -> restore -> evaluate

Every stage goes through the pickgen command line, so the artifacts match
what the CLI documents: corpus.jsonl, labeled.jsonl, checkpoint.bin,
predictions.jsonl, report.json/report.txt, and one effective-config file
per stage.
"""

import argparse
import sys
from pathlib import Path

from pickgen.cli import main as pickgen
from pickgen.labeling import LABEL_MODES


def run_pipeline(work_dir, size: int = 200, seed: int = 0, config=None,
                 label_mode: str = "hard") -> int:
    """Run the five stages into work_dir, forwarding the JSON config file
    config (if any) to each; returns the first non-zero exit code, or 0."""
    work = Path(work_dir)
    config = ["--config", str(config)] if config else []
    corpus = work / "synth" / "corpus.jsonl"
    labeled = work / "label" / "labeled.jsonl"
    checkpoint = work / "train" / "checkpoint.bin"
    predictions = work / "restore" / "predictions.jsonl"

    stages = [
        ["synth", "--out-dir", str(work / "synth"), "--size", str(size),
         "--seed", str(seed), *config],
        ["label", "--in", str(corpus), "--out-dir", str(work / "label"),
         "--mode", label_mode, *config],
        ["train", "--in", str(labeled), "--out-dir", str(work / "train"),
         "--seed", str(seed), *config],
        ["restore", "--in", str(corpus), "--checkpoint", str(checkpoint),
         "--out-dir", str(work / "restore"), *config],
        ["evaluate", "--predictions", str(predictions), "--gold", str(labeled),
         "--out-dir", str(work / "eval"), *config],
    ]
    for stage in stages:
        print(f"==> pickgen {' '.join(stage)}")
        code = pickgen(stage)
        if code != 0:
            return code
    print(f"done; report at {work / 'eval' / 'report.json'}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--size", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", help="JSON config forwarded to every stage")
    parser.add_argument("--label-mode", choices=LABEL_MODES, default="hard")
    args = parser.parse_args()
    return run_pipeline(args.work_dir, args.size, args.seed, args.config,
                        args.label_mode)


if __name__ == "__main__":
    sys.exit(main())
