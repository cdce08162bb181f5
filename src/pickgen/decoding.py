"""Restoration at inference time: greedy and beam-search decoding, plus the
picker's tag readout.

Scores are length-normalized cumulative log-probabilities
(logp / generated_length ** penalty). Ties break on (score, ids) so decoding
is fully deterministic; with beam size 1 the search reduces to greedy
decoding exactly, including tie handling (lowest token id wins).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, no_grad
from .corpus import (
    EOS_ID,
    PAD_ID,
    SOS_ID,
    DialogueSample,
    LanguageConfig,
    Vocabulary,
    detokenize,
    tokenize,
)
from .encoding import DEFAULT_MAX_LEN, build_input
from .labeling import BIO_TAGS
from .model import EncoderOutput, ModelParameters, decode_forward, encode, picker_forward

DEFAULT_BEAM_SIZE = 8
MAX_DECODE_LEN_CAP = 64


class InferenceError(ValueError):
    """Raised for incompatible checkpoint/vocabulary combinations."""


@dataclass(frozen=True)
class BeamHypothesis:
    ids: tuple[int, ...]  # SOS-initiated
    logp: float
    finished: bool = False

    def generated(self) -> tuple[int, ...]:
        """Token ids after SOS, without the terminating EOS."""
        body = self.ids[1:]
        if body and body[-1] == EOS_ID:
            body = body[:-1]
        return body

    def score(self, length_penalty: float) -> float:
        length = max(1, len(self.ids) - 1)
        return self.logp / length**length_penalty


def _tile_encoder(enc: EncoderOutput, count: int) -> EncoderOutput:
    if count == 1:
        return enc
    hidden = Tensor(np.repeat(enc.hidden.data, count, axis=0))
    mask = np.repeat(enc.mask, count, axis=0)
    return EncoderOutput(hidden=hidden, mask=mask)


def _next_log_probs(
    params: ModelParameters, enc: EncoderOutput, prefixes: list[tuple[int, ...]]
) -> np.ndarray:
    """Log-probabilities of the next token for each prefix: (k, V)."""
    ids = np.asarray(prefixes, dtype=np.int64)
    tiled = _tile_encoder(enc, len(prefixes))
    with no_grad():
        dists = decode_forward(tiled, ids, params)
    last = dists.data[:, -1, :]
    return np.log(np.maximum(last, 1e-300))


def greedy_decode(
    params: ModelParameters,
    input_ids: list[int],
    max_len: int,
    enc: EncoderOutput | None = None,
) -> list[int]:
    """Argmax decoding (ties -> lowest id) until EOS or max_len tokens."""
    if enc is None:
        enc = _encode_single(params, input_ids)
    prefix: tuple[int, ...] = (SOS_ID,)
    out: list[int] = []
    for _ in range(max_len):
        log_p = _next_log_probs(params, enc, [prefix])[0]
        token = int(np.argmax(log_p))
        if token == EOS_ID:
            break
        out.append(token)
        prefix = prefix + (token,)
    return out


def beam_search(
    params: ModelParameters,
    input_ids: list[int],
    beam_size: int = DEFAULT_BEAM_SIZE,
    max_len: int = MAX_DECODE_LEN_CAP,
    length_penalty: float = 1.0,
    nbest: int = 1,
    enc: EncoderOutput | None = None,
) -> list[BeamHypothesis]:
    """Breadth-limited best-first decoding.

    Each live hypothesis expands over the whole vocabulary; the top
    beam_size candidates by normalized score survive the round. Candidates
    that just emitted EOS are set aside as finished (the live set shrinks).
    Returns the nbest best hypotheses: finished ones if any exist, else the
    best live ones at the cutoff.
    """
    if beam_size < 1:
        raise InferenceError("beam_size must be >= 1")
    if nbest < 1:
        raise InferenceError("nbest must be >= 1")
    if enc is None:
        enc = _encode_single(params, input_ids)
    live = [BeamHypothesis((SOS_ID,), 0.0)]
    finished: list[BeamHypothesis] = []
    for _ in range(max_len):
        if not live:
            break
        log_p = _next_log_probs(params, enc, [h.ids for h in live])
        candidates: list[BeamHypothesis] = []
        for parent, row in zip(live, log_p):
            for token, lp in enumerate(row):
                candidates.append(
                    BeamHypothesis(
                        parent.ids + (token,),
                        parent.logp + float(lp),
                        finished=token == EOS_ID,
                    )
                )
        candidates.sort(key=lambda h: (-h.score(length_penalty), h.ids))
        survivors = candidates[:beam_size]
        live = [h for h in survivors if not h.finished]
        finished.extend(h for h in survivors if h.finished)
    pool = finished if finished else live
    pool = sorted(pool, key=lambda h: (-h.score(length_penalty), h.ids))
    return pool[:nbest]


def _encode_single(params: ModelParameters, input_ids: list[int]) -> EncoderOutput:
    ids = np.asarray([input_ids], dtype=np.int64)
    mask = np.ones_like(ids, dtype=np.float64)
    with no_grad():
        return encode(ids, mask, params)


def default_max_decode_len(
    samples: list[DialogueSample], cfg: LanguageConfig
) -> int:
    """Reference-length cap of the corpus + 8, bounded by the global cap."""
    lengths = [
        len(tokenize(s.reference, cfg)) for s in samples if s.reference is not None
    ]
    if not lengths:
        return MAX_DECODE_LEN_CAP
    return min(max(lengths) + 8, MAX_DECODE_LEN_CAP)


def restore_nbest(
    sample: DialogueSample,
    params: ModelParameters,
    vocab: Vocabulary,
    cfg: LanguageConfig,
    beam_size: int = DEFAULT_BEAM_SIZE,
    max_len: int = MAX_DECODE_LEN_CAP,
    length_penalty: float = 1.0,
    input_max_len: int = DEFAULT_MAX_LEN,
    nbest: int = 1,
) -> list[tuple[str, float]]:
    """Serialize, encode, beam-search, and detokenize one sample: its nbest
    best restorations as (text, normalized score) pairs, best first."""
    if params.config.vocab_size != len(vocab):
        raise InferenceError(
            f"checkpoint expects vocabulary of {params.config.vocab_size} "
            f"tokens, got {len(vocab)}"
        )
    input_ids, _ = build_input(sample, vocab, cfg, input_max_len)
    ranked = beam_search(params, input_ids, beam_size, max_len, length_penalty, nbest)
    return [(hypothesis_text(h, vocab, cfg), h.score(length_penalty)) for h in ranked]


def restore(
    sample: DialogueSample,
    params: ModelParameters,
    vocab: Vocabulary,
    cfg: LanguageConfig,
    beam_size: int = DEFAULT_BEAM_SIZE,
    max_len: int = MAX_DECODE_LEN_CAP,
    length_penalty: float = 1.0,
    input_max_len: int = DEFAULT_MAX_LEN,
) -> str:
    """The best restoration of one sample."""
    return restore_nbest(
        sample, params, vocab, cfg, beam_size, max_len, length_penalty, input_max_len
    )[0][0]


def hypothesis_text(
    hyp: BeamHypothesis, vocab: Vocabulary, cfg: LanguageConfig
) -> str:
    """Detokenize a hypothesis, stripping SOS/EOS/PAD."""
    return detokenize([vocab.token_of(i) for i in hyp.generated() if i != PAD_ID], cfg)


def restore_corpus(
    samples: list[DialogueSample],
    params: ModelParameters,
    vocab: Vocabulary,
    cfg: LanguageConfig,
    beam_size: int = DEFAULT_BEAM_SIZE,
    max_len: int | None = None,
    length_penalty: float = 1.0,
    input_max_len: int = DEFAULT_MAX_LEN,
) -> list[tuple[str, str]]:
    """Restorations for a corpus, order-preserving, as (id, text) pairs."""
    if max_len is None:
        max_len = default_max_decode_len(samples, cfg)
    return [
        (
            sample.id,
            restore(
                sample, params, vocab, cfg, beam_size, max_len,
                length_penalty, input_max_len,
            ),
        )
        for sample in samples
    ]


def predict_picker_tags(
    sample: DialogueSample,
    params: ModelParameters,
    vocab: Vocabulary,
    cfg: LanguageConfig,
    input_max_len: int = DEFAULT_MAX_LEN,
) -> list[list[str]]:
    """Per-context-utterance BIO tags from the picker head (hard mode) by
    argmax over classes; utterances truncated away get all-O rows."""
    if params.config.picker_arity != 3:
        raise InferenceError("tag prediction requires a hard-mode (arity 3) picker")
    input_ids, segments = build_input(sample, vocab, cfg, input_max_len)
    ids = np.asarray([input_ids], dtype=np.int64)
    mask = np.ones_like(ids, dtype=np.float64)
    with no_grad():
        enc = encode(ids, mask, params)
        probs = picker_forward(enc, params).data[0]  # (L, 3)
    classes = probs.argmax(axis=-1)
    rows = [["O"] * len(tokenize(u, cfg)) for u in sample.context]
    for pos, seg in enumerate(segments):
        if seg.kind == "context":
            rows[seg.utterance][seg.word] = BIO_TAGS[int(classes[pos])]
    return rows


def save_predictions(rows, path: str) -> None:
    """Write one JSON line per (id, prediction) row. A row may carry a third
    item, its ranked (text, score) list, which is written as "nbest"."""
    with open(path, "w", encoding="utf-8") as fh:
        for sample_id, prediction, *ranked in rows:
            record = {"id": sample_id, "prediction": prediction}
            if ranked:
                record["nbest"] = [
                    {"prediction": text, "score": score} for text, score in ranked[0]
                ]
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def load_predictions(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            record = json.loads(line)
            if "id" not in record or "prediction" not in record:
                raise InferenceError(f"{path}:{lineno}: need 'id' and 'prediction'")
            if record["id"] in out:
                raise InferenceError(f"{path}:{lineno}: duplicate id {record['id']!r}")
            out[record["id"]] = record["prediction"]
    return out
