"""Restoration at inference time: batched beam search (greedy decoding is
its beam-1 case) and the picker's tag readout.

Scores are length-normalized cumulative log-probabilities
(logp / generated_length ** penalty). Ties break on (score, ids) so decoding
is fully deterministic; with beam size 1 the search is greedy decoding,
lowest token id first on ties.

Every entry point runs the one search, `_search`: it encodes a batch of
inputs padded to one length, then decodes every live hypothesis of the
batch in one cached decoder call per step and picks each input's survivors
from its whole (live x vocabulary) score matrix in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import log_softmax, no_grad
from .corpus import (
    EOS_ID,
    PAD_ID,
    SOS_ID,
    X1_ID,
    X2_ID,
    DialogueSample,
    LanguageConfig,
    Vocabulary,
    detokenize,
    read_jsonl,
    record_id,
    tokenize,
    write_jsonl,
)
from .encoding import DEFAULT_MAX_LEN, build_input, pad
from .labeling import BIO_TAGS, PICKER_ARITY
from .model import DecoderCache, ModelParameters, decode_forward, encode, picker_forward

DEFAULT_BEAM_SIZE = 8
MAX_DECODE_LEN_CAP = 64
# Samples encoded and decoded together when restoring a corpus. A round's
# decoder state (keys, values and logits of every live hypothesis) grows
# with it: restoring restore_synth's 120 held-out samples at beam 8, a
# round's traced peak is 4.6 MB at 16 against 8.4 MB at 32, for about 3%
# more time per round. At 32 the rounds, not training, set the peak RSS of
# a process that trains and then restores.
RESTORE_CHUNK = 16


class InferenceError(ValueError):
    """Raised for bad search settings, a malformed predictions file, a
    vocabulary of another size than the checkpoint's, and tag prediction
    from a picker that is not hard-mode."""


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


def _survivors(
    scores: np.ndarray, prefixes: np.ndarray, source: np.ndarray, beam_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """(row, token) of the best beam_size candidates of every source, grouped
    by source and best first within it.

    Candidates rank by score, then by their ids. All candidates of a round
    have the same length, so the ids order is that of the parent prefix,
    then of the token: one key, parent_rank * V + token. A candidate below
    its row's beam_size-th best score cannot survive, so only the others
    are sorted.
    """
    vocab = scores.shape[1]
    k = min(beam_size, vocab)
    kth = -np.partition(-scores, k - 1, axis=1)[:, k - 1 : k]
    rows, tokens = np.nonzero(scores >= kth)
    parent_rank = np.empty(len(prefixes), dtype=np.int64)
    parent_rank[np.lexsort(prefixes.T[::-1])] = np.arange(len(prefixes))
    ids_key = parent_rank[rows] * vocab + tokens
    order = np.lexsort((ids_key, -scores[rows, tokens], source[rows]))
    rows, tokens = rows[order], tokens[order]
    group = source[rows]
    keep = np.arange(len(rows)) - np.searchsorted(group, group) < beam_size
    return rows[keep], tokens[keep]


def check_search_settings(
    beam_size: int, max_len: int, length_penalty: float, nbest: int
) -> np.ndarray:
    """Raise InferenceError unless a search can run with these settings;
    return norm, whose norm[n - 1] = n ** length_penalty divides the log-prob
    of a length-n hypothesis, for n from 1 to max_len."""
    if beam_size < 1:
        raise InferenceError("beam_size must be >= 1")
    if nbest < 1:
        raise InferenceError("nbest must be >= 1")
    if max_len < 1:
        raise InferenceError("max_len must be >= 1")
    try:
        norm = np.array([n**length_penalty for n in range(1, max_len + 1)], dtype=float)
    except OverflowError:
        norm = np.array([np.inf])
    if not (np.isfinite(norm) & (norm > 0)).all():
        raise InferenceError(
            f"length_penalty {length_penalty}: some n ** {length_penalty} with "
            f"1 <= n <= max_len {max_len} is not a finite positive float"
        )
    return norm


def _search(
    params: ModelParameters,
    inputs: list[list[int]],
    beam_size: int,
    max_len: int,
    length_penalty: float,
    nbest: int,
) -> list[list[BeamHypothesis]]:
    """Breadth-limited best-first decoding of every input at once.

    Each live hypothesis expands over the whole vocabulary; the top
    beam_size candidates of each input by normalized score survive the
    round. Candidates that just emitted EOS are set aside as finished (the
    live set shrinks). An input leaves the batch before max_len once its
    nbest-th best finished score beats the bound of each of its live rows:
    a later token adds a log-prob <= 0, so no descendant scores above logp /
    the largest length divisor still ahead. A tie keeps the input, as ids
    could break it. Returns, per input, its nbest best hypotheses: finished
    ones if any exist, else the best live ones at the cutoff.
    """
    norm = check_search_settings(beam_size, max_len, length_penalty, nbest)
    count = len(inputs)
    ids, mask = pad(inputs)
    finished: list[list[BeamHypothesis]] = [[] for _ in inputs]
    # reach[n - 1] is the largest divisor of any length from n to max_len
    reach = np.maximum.accumulate(norm[::-1])[::-1]
    top = np.full((count, nbest), -np.inf)  # nbest best finished scores, ascending
    with no_grad():
        enc = encode(ids, mask, params)
        cache = DecoderCache(source=np.arange(count))
        prefixes = np.full((count, 1), SOS_ID, dtype=np.int64)  # live ids, (R, t)
        logp = np.zeros(count)
        for step in range(max_len):
            if not len(prefixes):
                break
            logits = decode_forward(enc, prefixes[:, -1:], params, cache=cache)
            total = logp[:, None] + log_softmax(logits.data[:, -1, :])
            scores = total / norm[step]
            rows, tokens = _survivors(scores, prefixes, cache.source, beam_size)
            for row in rows[tokens == EOS_ID]:
                source = cache.source[row]
                finished[source].append(BeamHypothesis(
                    (*prefixes[row].tolist(), EOS_ID), float(total[row, EOS_ID]), True
                ))
                if scores[row, EOS_ID] > top[source, 0]:
                    top[source, 0] = scores[row, EOS_ID]
                    top[source].sort()
            live = tokens != EOS_ID
            rows, tokens = rows[live], tokens[live]
            source = cache.source[rows]
            # reach[step] also counts the rows' own length, which keeps the
            # last step in range and can only loosen the bound
            bound = total[rows, tokens] / reach[step]
            running = np.zeros(count, dtype=bool)
            running[source[~(top[source, 0] > bound)]] = True
            keep = running[source]
            rows, tokens = rows[keep], tokens[keep]
            logp = total[rows, tokens]
            prefixes = np.concatenate([prefixes[rows], tokens[:, None]], axis=1)
            cache.reorder(rows)
    results = []
    for source, done in enumerate(finished):
        pool = done or [
            BeamHypothesis(tuple(prefix.tolist()), float(lp))
            for prefix, lp, row_source in zip(prefixes, logp, cache.source)
            if row_source == source
        ]
        pool.sort(key=lambda h: (-h.score(length_penalty), h.ids))
        results.append(pool[:nbest])
    return results


def greedy_decode(
    params: ModelParameters, input_ids: list[int], max_len: int
) -> list[int]:
    """Argmax decoding (ties -> lowest id) until EOS or max_len tokens: the
    beam search at beam size 1."""
    return list(beam_search(params, input_ids, 1, max_len)[0].generated())


def beam_search(
    params: ModelParameters,
    input_ids: list[int],
    beam_size: int = DEFAULT_BEAM_SIZE,
    max_len: int = MAX_DECODE_LEN_CAP,
    nbest: int = 1,
) -> list[BeamHypothesis]:
    """The nbest best hypotheses for one input, best first (see _search)."""
    return _search(params, [input_ids], beam_size, max_len, 1.0, nbest)[0]


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


def restore_ranked(
    samples: list[DialogueSample],
    params: ModelParameters,
    vocab: Vocabulary,
    cfg: LanguageConfig,
    beam_size: int = DEFAULT_BEAM_SIZE,
    max_len: int = MAX_DECODE_LEN_CAP,
    length_penalty: float = 1.0,
    input_max_len: int = DEFAULT_MAX_LEN,
    nbest: int = 1,
) -> list[list[tuple[str, float]]]:
    """Serialize, encode, beam-search and detokenize samples, RESTORE_CHUNK
    at a time: per sample, its nbest best restorations as (text, normalized
    score) pairs, best first."""
    if params.config.vocab_size != len(vocab):
        raise InferenceError(
            f"checkpoint expects vocabulary of {params.config.vocab_size} "
            f"tokens, got {len(vocab)}"
        )
    ranked = []
    for start in range(0, len(samples), RESTORE_CHUNK):
        chunk = samples[start : start + RESTORE_CHUNK]
        inputs = [build_input(s, vocab, cfg, input_max_len)[0] for s in chunk]
        for hyps in _search(params, inputs, beam_size, max_len, length_penalty, nbest):
            ranked.append(
                [(hypothesis_text(h, vocab, cfg), h.score(length_penalty)) for h in hyps]
            )
    return ranked


def restore(
    sample: DialogueSample,
    params: ModelParameters,
    vocab: Vocabulary,
    cfg: LanguageConfig,
    beam_size: int = DEFAULT_BEAM_SIZE,
    max_len: int = MAX_DECODE_LEN_CAP,
) -> str:
    """The best restoration of one sample."""
    return restore_ranked([sample], params, vocab, cfg, beam_size, max_len)[0][0][0]


def hypothesis_text(
    hyp: BeamHypothesis, vocab: Vocabulary, cfg: LanguageConfig
) -> str:
    """Detokenize a hypothesis, dropping its final EOS and any PAD, SOS,
    [X1] or [X2] (the logits are not masked, so a model can emit them)."""
    hidden = (PAD_ID, SOS_ID, X1_ID, X2_ID)
    return detokenize([vocab.token_of(i) for i in hyp.generated() if i not in hidden], cfg)


def restore_corpus(
    samples: list[DialogueSample],
    params: ModelParameters,
    vocab: Vocabulary,
    cfg: LanguageConfig,
    beam_size: int = DEFAULT_BEAM_SIZE,
    max_len: int | None = None,
) -> list[tuple[str, str]]:
    """Restorations for a corpus, order-preserving, as (id, text) pairs."""
    if max_len is None:
        max_len = default_max_decode_len(samples, cfg)
    ranked = restore_ranked(samples, params, vocab, cfg, beam_size, max_len)
    return [(sample.id, best[0][0]) for sample, best in zip(samples, ranked)]


def predict_picker_tags(
    sample: DialogueSample,
    params: ModelParameters,
    vocab: Vocabulary,
    cfg: LanguageConfig,
    input_max_len: int = DEFAULT_MAX_LEN,
) -> list[list[str]]:
    """Per-context-utterance BIO tags from the picker head (hard mode) by
    argmax over classes; words truncated away are tagged O."""
    if params.config.picker_arity != PICKER_ARITY["hard"]:
        raise InferenceError("tag prediction requires a hard-mode (arity 3) picker")
    input_ids, (turn, word) = build_input(sample, vocab, cfg, input_max_len)
    with no_grad():
        enc = encode(*pad([input_ids]), params)
        classes = iter(picker_forward(enc, params).data[0].argmax(axis=-1).tolist())
    rows = [["O"] * len(tokenize(u, cfg)) for u in sample.context]
    for k in range(turn, len(rows)):
        for w in range(word if k == turn else 0, len(rows[k])):
            rows[k][w] = BIO_TAGS[next(classes)]
        next(classes)  # the turn's [X1]
    return rows


def save_predictions(rows, path: str) -> None:
    """Write one JSON line per (id, prediction) row. A row may carry a third
    item, its ranked (text, score) list, which is written as "nbest"."""
    records = []
    for sample_id, prediction, *ranked in rows:
        records.append({"id": sample_id, "prediction": prediction})
        if ranked:
            records[-1]["nbest"] = [
                {"prediction": text, "score": score} for text, score in ranked[0]
            ]
    write_jsonl(records, path)


def load_predictions(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for index, (where, record) in enumerate(read_jsonl(path, InferenceError)):
        if "id" not in record or "prediction" not in record:
            raise InferenceError(f"{where}: need 'id' and 'prediction'")
        sample_id = record_id(record, index)  # as load_corpus reads it
        if sample_id in out:
            raise InferenceError(f"{where}: duplicate id {sample_id!r}")
        if not isinstance(record["prediction"], str):
            raise InferenceError(f"{where}: 'prediction' must be a string")
        out[sample_id] = record["prediction"]
    return out
