#!/usr/bin/env python3
"""Overfit sanity check: memorize a small synthetic corpus and report
training-set exact match under beam decoding. A healthy build reaches
100% well before 200 epochs; anything under 95% points at a training or
decoding defect.

The learning rate (2e-3) is tuned for training this toy model from
scratch; the configuration default (5e-5) targets fine-tuning-sized steps
and is far too small to memorize a corpus in a few hundred epochs."""

import argparse
import sys

from pickgen.corpus import LanguageConfig, build_vocab
from pickgen.decoding import default_max_decode_len, restore_corpus
from pickgen.labeling import EmbeddingTable, label_corpus
from pickgen.metrics import exact_match
from pickgen.synth import generate_corpus
from pickgen.training import TrainConfig, make_model_config, train


def overfit_run(size=32, epochs=200, seed=11, beam_size=8, learning_rate=2e-3,
                out_dir=None, model_overrides=None):
    """Train on a small synthetic corpus until it is memorized, then decode
    the training set itself. Returns the exact match in percent, the final
    generator loss and the (sample id, restored text) pairs."""
    lang = LanguageConfig.for_language("english")
    samples = generate_corpus(size, seed)
    labeled = label_corpus(samples, "hard", EmbeddingTable(), lang)
    vocab = build_vocab(samples, max_size=2000, cfg=lang)
    train_cfg = TrainConfig(picker_weight=1.0, learning_rate=learning_rate,
                            epochs=epochs, seed=seed, label_mode="hard")
    model_cfg = make_model_config(
        len(vocab), "hard", seed=seed, dropout=0.0, **(model_overrides or {}))
    state = train(labeled, train_cfg, model_cfg, vocab, lang, out_dir=out_dir).state
    max_len = default_max_decode_len(samples, lang)
    pairs = restore_corpus(samples, state.params, vocab, lang, beam_size, max_len)
    by_id = dict(pairs)
    em = sum(exact_match(by_id[s.id], s.reference) for s in samples) / len(samples)
    return 100.0 * em, state.epoch_losses["generator"], pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=32)
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--beam-size", type=int, default=8)
    parser.add_argument("--learning-rate", type=float, default=2e-3)
    parser.add_argument("--out-dir", help="also write checkpoint and loss log")
    parser.add_argument("--show-misses", action="store_true")
    args = vars(parser.parse_args())
    show_misses = args.pop("show_misses")

    exact_pct, generator_loss, pairs = overfit_run(**args)
    print(f"exact match: {exact_pct:.1f}%")
    print(f"final generator loss: {generator_loss:.4f}")
    if show_misses:
        for sample_id, text in pairs:
            print(f"  {sample_id}: {text}")
    return 0 if exact_pct >= 95.0 else 1


if __name__ == "__main__":
    sys.exit(main())
