"""Serialize dialogue samples into model-facing id sequences.

Input layout: h_1 [X1] h_2 [X1] ... h_m [X1] u_1..u_n [X2] </s>.
Decoder streams are teacher-forcing shifted: input <s> r_1..r_k, target
r_1..r_k </s>. Word-level picker labels are aligned onto serialized token
positions, with an ignore mark on special tokens and padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import (
    EOS_ID,
    PAD_ID,
    SOS_ID,
    X1_ID,
    X2_ID,
    DialogueSample,
    LanguageConfig,
    Vocabulary,
    ids_of,
    tokenize,
)
from .labeling import BIO_TO_CLASS, PickerLabels, alignment_problem

DEFAULT_MAX_LEN = 512

# Picker target value marking positions excluded from the picker loss
# (special tokens and padding).
IGNORE_MARK = -1.0


class EncodingError(ValueError):
    """Raised when a sample cannot be serialized."""


class Segment(NamedTuple):
    """Provenance of one serialized position.

    kind: context | x1 | incomplete | x2 | eos; utterance: original context
    utterance index (-1 outside context); word: word index within its
    utterance (-1 for special tokens).
    """

    kind: str
    utterance: int
    word: int


@dataclass(frozen=True)
class EncodedSample:
    id: str
    input_ids: tuple[int, ...]
    picker_targets: tuple[float, ...]
    decoder_input: tuple[int, ...]
    decoder_target: tuple[int, ...]


@dataclass(frozen=True)
class EncodedBatch:
    """Right-padded batch tensors; mask is 1 exactly on real tokens."""

    input_ids: np.ndarray  # (B, L) int64
    input_mask: np.ndarray  # (B, L) float64, 1.0 on real tokens
    picker_targets: np.ndarray  # (B, L) float64 with IGNORE_MARK holes
    decoder_input: np.ndarray  # (B, T) int64
    decoder_target: np.ndarray  # (B, T) int64
    target_mask: np.ndarray  # (B, T) float64


def build_input(
    sample: DialogueSample,
    vocab: Vocabulary,
    cfg: LanguageConfig,
    max_len: int = DEFAULT_MAX_LEN,
) -> tuple[list[int], list[Segment]]:
    """Serialize context + incomplete utterance with the special-token
    layout, dropping oldest context turns if the result would exceed
    max_len."""
    context_tokens = [tokenize(u, cfg) for u in sample.context]
    incomplete_tokens = tokenize(sample.incomplete, cfg)
    fixed = len(incomplete_tokens) + 2  # [X2] and </s>
    start = 0
    while start < len(context_tokens) - 1:
        length = fixed + sum(len(t) + 1 for t in context_tokens[start:])
        if length <= max_len:
            break
        start += 1
    length = fixed + sum(len(t) + 1 for t in context_tokens[start:])
    if length > max_len:
        raise EncodingError(
            f"sample {sample.id!r}: serialized length {length} exceeds "
            f"max_len {max_len} even after truncating context"
        )
    ids: list[int] = []
    segments: list[Segment] = []
    for k in range(start, len(context_tokens)):
        words = context_tokens[k]
        ids.extend(ids_of(words, vocab))
        segments.extend(Segment("context", k, w) for w in range(len(words)))
        ids.append(X1_ID)
        segments.append(Segment("x1", k, -1))
    ids.extend(ids_of(incomplete_tokens, vocab))
    segments.extend(Segment("incomplete", -1, w) for w in range(len(incomplete_tokens)))
    ids.append(X2_ID)
    segments.append(Segment("x2", -1, -1))
    ids.append(EOS_ID)
    segments.append(Segment("eos", -1, -1))
    return ids, segments


def build_target(
    reference: str, vocab: Vocabulary, cfg: LanguageConfig
) -> tuple[list[int], list[int]]:
    """Teacher-forcing decoder streams: (SOS + r, r + EOS)."""
    tokens = tokenize(reference, cfg)
    if not tokens:
        raise EncodingError("reference tokenized to nothing")
    ids = ids_of(tokens, vocab)
    return [SOS_ID] + ids, ids + [EOS_ID]


def align_labels(labels: PickerLabels, segments: list[Segment]) -> list[float]:
    """Map word-level picker labels onto serialized positions.

    Context words take their own label; incomplete-utterance words get the
    O class / score 0; special tokens get the ignore mark; padding is
    handled at collate time.
    """
    rows = labels.tags if labels.tags is not None else labels.scores
    soft = labels.mode == "soft"
    out: list[float] = []
    for seg in segments:
        if seg.kind in ("x1", "x2", "eos"):
            out.append(IGNORE_MARK)
        elif seg.kind == "incomplete":
            out.append(0.0)
        else:
            if seg.utterance >= len(rows):
                raise EncodingError(
                    f"labels cover {len(rows)} utterances, segment refers to "
                    f"utterance {seg.utterance}"
                )
            row = rows[seg.utterance]
            if seg.word >= len(row):
                raise EncodingError(
                    f"utterance {seg.utterance} has {len(row)} labels, "
                    f"word index {seg.word} out of range"
                )
            value = row[seg.word]
            out.append(float(value) if soft else float(BIO_TO_CLASS[value]))
    return out


def encode_sample(
    sample: DialogueSample,
    vocab: Vocabulary,
    cfg: LanguageConfig,
    labels: PickerLabels | None = None,
    max_len: int = DEFAULT_MAX_LEN,
) -> EncodedSample:
    input_ids, segments = build_input(sample, vocab, cfg, max_len)
    if labels is not None:
        problem = alignment_problem(sample, labels, cfg)
        if problem:
            raise EncodingError(f"sample {sample.id!r}: {problem}")
        picker = align_labels(labels, segments)
    else:
        picker = [IGNORE_MARK] * len(input_ids)
    if sample.reference is None:
        raise EncodingError(f"sample {sample.id!r}: no reference to encode")
    dec_in, dec_out = build_target(sample.reference, vocab, cfg)
    return EncodedSample(
        id=sample.id,
        input_ids=tuple(input_ids),
        picker_targets=tuple(picker),
        decoder_input=tuple(dec_in),
        decoder_target=tuple(dec_out),
    )


def collate(samples: list[EncodedSample]) -> EncodedBatch:
    """Right-pad a list of encoded samples into batch arrays."""
    if not samples:
        raise EncodingError("cannot collate an empty batch")
    batch = len(samples)
    max_in = max(len(s.input_ids) for s in samples)
    input_ids = np.full((batch, max_in), PAD_ID, dtype=np.int64)
    input_mask = np.zeros((batch, max_in))
    picker = np.full((batch, max_in), IGNORE_MARK)
    max_t = max(len(s.decoder_input) for s in samples)
    dec_in = np.full((batch, max_t), PAD_ID, dtype=np.int64)
    dec_out = np.full((batch, max_t), PAD_ID, dtype=np.int64)
    tgt_mask = np.zeros((batch, max_t))
    for i, s in enumerate(samples):
        n = len(s.input_ids)
        input_ids[i, :n] = s.input_ids
        input_mask[i, :n] = 1.0
        picker[i, :n] = s.picker_targets
        t = len(s.decoder_input)
        dec_in[i, :t] = s.decoder_input
        dec_out[i, :t] = s.decoder_target
        tgt_mask[i, :t] = 1.0
    return EncodedBatch(
        input_ids=input_ids,
        input_mask=input_mask,
        picker_targets=picker,
        decoder_input=dec_in,
        decoder_target=dec_out,
        target_mask=tgt_mask,
    )

