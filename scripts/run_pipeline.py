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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--size", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", help="JSON config forwarded to every stage")
    parser.add_argument("--label-mode", choices=LABEL_MODES, default="hard")
    args = parser.parse_args()

    work = Path(args.work_dir)
    config = ["--config", args.config] if args.config else []
    corpus = work / "synth" / "corpus.jsonl"
    labeled = work / "label" / "labeled.jsonl"
    checkpoint = work / "train" / "checkpoint.bin"
    predictions = work / "restore" / "predictions.jsonl"

    stages = [
        ["synth", "--out-dir", str(work / "synth"), "--size", str(args.size),
         "--seed", str(args.seed), *config],
        ["label", "--in", str(corpus), "--out-dir", str(work / "label"),
         "--mode", args.label_mode, *config],
        ["train", "--in", str(labeled), "--out-dir", str(work / "train"),
         "--label-mode", args.label_mode, "--seed", str(args.seed), *config],
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


if __name__ == "__main__":
    sys.exit(main())
