"""Serialize dialogue samples into model-facing id sequences.

Input layout: h_1 [X1] h_2 [X1] ... h_m [X1] u_1..u_n [X2] </s>. Every word
(every character of Chinese text) is one id, so a serialized position is a
plain offset into the kept words. An input longer than max_len loses its
oldest whole context turns, never the last one; if it is still too long,
the oldest words of the last turn go, then the head of the incomplete
utterance. The last [X1], [X2] and </s> always stay.

Decoder streams are teacher-forcing shifted: input <s> r_1..r_k, target
r_1..r_k </s>. Word-level picker labels are aligned onto serialized token
positions, with an ignore mark on special tokens and padding.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class EncodedSample:
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


def check_max_len(max_len: int) -> None:
    """Raise EncodingError unless max_len ids hold [X1] [X2] </s>."""
    if max_len < 3:
        raise EncodingError(f"max_len {max_len} cannot hold [X1] [X2] </s>")


def build_input(
    sample: DialogueSample,
    vocab: Vocabulary,
    cfg: LanguageConfig,
    max_len: int = DEFAULT_MAX_LEN,
) -> tuple[list[int], tuple[int, int]]:
    """Serialize context + incomplete utterance with the special-token
    layout, truncated to max_len as the module docstring says.

    Returns the ids and first = (turn, word), the first context word kept:
    the input holds context[turn][word:], the later turns whole, then the
    incomplete utterance. A word index past the end of the last turn counts
    on into the incomplete utterance, whose head was dropped too.
    """
    check_max_len(max_len)
    turns = [tokenize(u, cfg) for u in sample.context]
    incomplete = tokenize(sample.incomplete, cfg)
    length = sum(len(t) + 1 for t in turns) + len(incomplete) + 2
    turn = 0
    while length > max_len and turn < len(turns) - 1:
        length -= len(turns[turn]) + 1
        turn += 1
    word = max(0, length - max_len)
    ids: list[int] = []
    for words in (turns[turn][word:], *turns[turn + 1 :]):
        ids += ids_of(words, vocab) + [X1_ID]
    ids += ids_of(incomplete[max(0, word - len(turns[-1])) :], vocab)
    return ids + [X2_ID, EOS_ID], (turn, word)


def build_target(
    reference: str, vocab: Vocabulary, cfg: LanguageConfig
) -> tuple[list[int], list[int]]:
    """Teacher-forcing decoder streams: (SOS + r, r + EOS)."""
    tokens = tokenize(reference, cfg)
    if not tokens:
        raise EncodingError("reference tokenized to nothing")
    ids = ids_of(tokens, vocab)
    return [SOS_ID] + ids, ids + [EOS_ID]


def align_labels(
    labels: PickerLabels, first: tuple[int, int], length: int
) -> list[float]:
    """Picker targets of a serialized input of `length` ids whose first
    kept context word is first = (turn, word), as build_input returns.

    Kept context words take their own label, each turn's [X1] and the
    closing [X2] </s> the ignore mark, incomplete-utterance words the O
    class / score 0; padding is handled at collate time.
    """
    turn, word = first
    rows, soft = labels.rows, labels.mode == "soft"
    out: list[float] = []
    for row in (rows[turn][word:], *rows[turn + 1 :]):
        out += [float(v) if soft else float(BIO_TO_CLASS[v]) for v in row]
        out.append(IGNORE_MARK)
    return out + [0.0] * (length - len(out) - 2) + [IGNORE_MARK] * 2


def encode_sample(
    sample: DialogueSample,
    vocab: Vocabulary,
    cfg: LanguageConfig,
    labels: PickerLabels | None = None,
    max_len: int = DEFAULT_MAX_LEN,
) -> EncodedSample:
    input_ids, first = build_input(sample, vocab, cfg, max_len)
    if labels is not None:
        problem = alignment_problem(sample, labels, cfg)
        if problem:
            raise EncodingError(f"sample {sample.id!r}: {problem}")
        picker = align_labels(labels, first, len(input_ids))
    else:
        picker = [IGNORE_MARK] * len(input_ids)
    if sample.reference is None:
        raise EncodingError(f"sample {sample.id!r}: no reference to encode")
    dec_in, dec_out = build_target(sample.reference, vocab, cfg)
    return EncodedSample(
        input_ids=tuple(input_ids),
        picker_targets=tuple(picker),
        decoder_input=tuple(dec_in),
        decoder_target=tuple(dec_out),
    )


def pad(rows, fill=PAD_ID) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad rows with fill, which sets the dtype, to the longest one:
    (values, mask), where the mask is 1.0 exactly on the rows' own entries."""
    values = np.full((len(rows), max(map(len, rows))), fill)
    mask = np.zeros(values.shape)
    for i, row in enumerate(rows):
        values[i, : len(row)] = row
        mask[i, : len(row)] = 1.0
    return values, mask


def collate(samples: list[EncodedSample]) -> EncodedBatch:
    """Right-pad a list of encoded samples into batch arrays."""
    if not samples:
        raise EncodingError("cannot collate an empty batch")
    input_ids, input_mask = pad([s.input_ids for s in samples])
    decoder_input, target_mask = pad([s.decoder_input for s in samples])
    return EncodedBatch(
        input_ids=input_ids,
        input_mask=input_mask,
        picker_targets=pad([s.picker_targets for s in samples], IGNORE_MARK)[0],
        decoder_input=decoder_input,
        decoder_target=pad([s.decoder_target for s in samples])[0],
        target_mask=target_mask,
    )
