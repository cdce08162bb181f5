"""Reusable desk-scale experiments: the overfit sanity run and the
joint-versus-generator-only comparison, wrapped by the scripts/ runners.

The learning rates here are tuned for training this toy model from
scratch; the configuration default (5e-5) targets fine-tuning-sized steps
and is far too small to memorize a corpus in a few hundred epochs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import LanguageConfig, build_vocab, tokenize
from .decoding import (
    default_max_decode_len,
    predict_picker_tags,
    restore_corpus,
)
from .labeling import EmbeddingTable, label_corpus
from .metrics import exact_match, picker_f1, restoration_f
from .synth import generate_corpus
from .training import TrainConfig, make_model_config, train


@dataclass
class OverfitResult:
    exact_match_pct: float
    final_generator_loss: float
    predictions: list[tuple[str, str]]


def overfit_run(
    size: int = 32,
    epochs: int = 200,
    seed: int = 11,
    beam_size: int = 8,
    learning_rate: float = 2e-3,
    out_dir: str | None = None,
    model_overrides: dict | None = None,
) -> OverfitResult:
    """Train on a small synthetic corpus until it is memorized, then decode
    the training set itself and report exact match."""
    lang = LanguageConfig.for_language("english")
    samples = generate_corpus(size, seed)
    labeled = label_corpus(samples, "hard", EmbeddingTable(), lang)
    vocab = build_vocab(samples, max_size=2000, cfg=lang)
    train_cfg = TrainConfig(
        picker_weight=1.0,
        learning_rate=learning_rate,
        epochs=epochs,
        seed=seed,
        label_mode="hard",
    )
    model_cfg = make_model_config(
        len(vocab), "hard", seed=seed, dropout=0.0, **(model_overrides or {})
    )
    result = train(labeled, train_cfg, model_cfg, vocab, lang, out_dir=out_dir)
    max_len = default_max_decode_len(samples, lang)
    pairs = restore_corpus(
        samples, result.state.params, vocab, lang, beam_size, max_len
    )
    by_id = dict(pairs)
    em = sum(exact_match(by_id[s.id], s.reference) for s in samples) / len(samples)
    return OverfitResult(
        exact_match_pct=100.0 * em,
        final_generator_loss=result.state.epoch_losses["generator"],
        predictions=pairs,
    )


@dataclass
class ComparisonResult:
    joint_f1: list[float]  # restoration f1 (percent) per seed, joint runs
    baseline_f1: list[float]  # same, generator-only runs
    picker_f1: list[float]  # held-out picker tag F1 per seed, joint runs

    def mean_joint_f1(self) -> float:
        return sum(self.joint_f1) / len(self.joint_f1)

    def mean_baseline_f1(self) -> float:
        return sum(self.baseline_f1) / len(self.baseline_f1)

    def mean_picker_f1(self) -> float:
        return sum(self.picker_f1) / len(self.picker_f1)


def joint_vs_baseline_run(
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5),
    corpus_size: int = 500,
    held_out: int = 100,
    corpus_seed: int = 99,
    epochs: int = 10,
    learning_rate: float = 1.5e-3,
    beam_size: int = 1,
    model_overrides: dict | None = None,
) -> ComparisonResult:
    """Train joint (picker weight 1) and generator-only (weight 0) models
    over several seeds on the same split; report held-out restoration f1
    for both and picker tag F1 for the joint models."""
    if not 0 < held_out < corpus_size:
        raise ValueError("held_out must lie strictly between 0 and corpus_size")
    lang = LanguageConfig.for_language("english")
    samples = generate_corpus(corpus_size, corpus_seed)
    train_samples = samples[:-held_out]
    eval_samples = samples[-held_out:]
    emb = EmbeddingTable()
    train_labeled = label_corpus(train_samples, "hard", emb, lang)
    eval_labeled = label_corpus(eval_samples, "hard", emb, lang)
    gold_tags = [list(map(list, item.labels.tags)) for item in eval_labeled]
    vocab = build_vocab(train_samples, max_size=2000, cfg=lang)
    max_len = default_max_decode_len(samples, lang)
    result = ComparisonResult([], [], [])
    for seed in seeds:
        for weight in (1.0, 0.0):
            cfg = TrainConfig(
                picker_weight=weight,
                learning_rate=learning_rate,
                epochs=epochs,
                seed=seed,
                label_mode="hard",
            )
            model_cfg = make_model_config(
                len(vocab), "hard", seed=seed, dropout=0.0,
                **(model_overrides or {}),
            )
            trained = train(train_labeled, cfg, model_cfg, vocab, lang)
            params = trained.state.params
            pairs = restore_corpus(
                eval_samples, params, vocab, lang, beam_size, max_len
            )
            by_id = dict(pairs)
            f1 = 100.0 * sum(
                restoration_f(
                    tokenize(by_id[s.id], lang),
                    tokenize(s.reference, lang),
                    tokenize(s.incomplete, lang),
                    1,
                )
                for s in eval_samples
            ) / len(eval_samples)
            if weight == 1.0:
                result.joint_f1.append(f1)
                pred_tags = []
                for s in eval_samples:
                    pred_tags.extend(predict_picker_tags(s, params, vocab, lang))
                flat_gold = [row for rows in gold_tags for row in rows]
                result.picker_f1.append(picker_f1(pred_tags, flat_gold))
            else:
                result.baseline_f1.append(f1)
    return result
