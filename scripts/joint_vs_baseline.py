#!/usr/bin/env python3
"""Compare joint training (picker weight 1) against a generator-only
baseline (weight 0) across several seeds on the same synthetic split.

Reports held-out restoration f1 for both arms and picker tag F1 for the
joint arm. The expectation is directional: the joint mean stays within a
point of the baseline while the picker learns near-perfect tags.

The learning rate (1.5e-3) is tuned for training this toy model from
scratch; the configuration default (5e-5) targets fine-tuning-sized steps
and is far too small for a few epochs on a small corpus."""

import argparse
import sys

from pickgen.corpus import LanguageConfig, build_vocab, tokenize
from pickgen.decoding import (
    default_max_decode_len,
    predict_picker_tags,
    restore_corpus,
)
from pickgen.labeling import EmbeddingTable, label_corpus
from pickgen.metrics import picker_f1, restoration_f
from pickgen.synth import generate_corpus
from pickgen.training import TrainConfig, make_model_config, train


def joint_vs_baseline_run(seeds=(1, 2, 3, 4, 5), corpus_size=500, held_out=100,
                          corpus_seed=99, epochs=10, learning_rate=1.5e-3,
                          beam_size=1, model_overrides=None):
    """Train joint and generator-only models for each seed on the same
    split. Returns three per-seed lists: held-out restoration f1 in percent
    of the joint and of the generator-only runs, and held-out picker tag F1
    of the joint runs."""
    if not 0 < held_out < corpus_size:
        raise ValueError("held_out must lie strictly between 0 and corpus_size")
    lang = LanguageConfig.for_language("english")
    samples = generate_corpus(corpus_size, corpus_seed)
    train_samples = samples[:-held_out]
    eval_samples = samples[-held_out:]
    emb = EmbeddingTable()
    train_labeled = label_corpus(train_samples, "hard", emb, lang)
    eval_labeled = label_corpus(eval_samples, "hard", emb, lang)
    gold_tags = [row for item in eval_labeled for row in item.labels.tags]
    vocab = build_vocab(train_samples, max_size=2000, cfg=lang)
    max_len = default_max_decode_len(samples, lang)
    joint_f1, baseline_f1, tag_f1 = [], [], []
    for seed in seeds:
        for weight in (1.0, 0.0):
            cfg = TrainConfig(picker_weight=weight, learning_rate=learning_rate,
                              epochs=epochs, seed=seed, label_mode="hard")
            model_cfg = make_model_config(
                len(vocab), "hard", seed=seed, dropout=0.0, **(model_overrides or {}))
            params = train(train_labeled, cfg, model_cfg, vocab, lang).state.params
            by_id = dict(restore_corpus(
                eval_samples, params, vocab, lang, beam_size, max_len))
            f1 = 100.0 * sum(
                restoration_f(
                    tokenize(by_id[s.id], lang),
                    tokenize(s.reference, lang),
                    tokenize(s.incomplete, lang),
                    1,
                )
                for s in eval_samples
            ) / len(eval_samples)
            if weight:
                joint_f1.append(f1)
                pred_tags = [row for s in eval_samples
                             for row in predict_picker_tags(s, params, vocab, lang)]
                tag_f1.append(picker_f1(pred_tags, gold_tags))
            else:
                baseline_f1.append(f1)
    return joint_f1, baseline_f1, tag_f1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="1,2,3,4,5",
                        type=lambda text: tuple(int(s) for s in text.split(",")),
                        help="comma-separated training seeds")
    parser.add_argument("--corpus-size", type=int, default=500)
    parser.add_argument("--held-out", type=int, default=100)
    parser.add_argument("--corpus-seed", type=int, default=99)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--learning-rate", type=float, default=1.5e-3)
    parser.add_argument("--beam-size", type=int, default=1)
    args = parser.parse_args()

    runs = joint_vs_baseline_run(**vars(args))
    means = [sum(values) / len(values) for values in runs]
    print(f"{'seed':>6}  {'joint f1':>9}  {'baseline f1':>12}  {'picker f1':>10}")
    for label, joint, baseline, tags in [*zip(args.seeds, *runs), ("mean", *means)]:
        print(f"{label:>6}  {joint:>9.2f}  {baseline:>12.2f}  {tags:>10.3f}")
    print(f"joint - baseline gap: {means[0] - means[1]:+.2f} points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
