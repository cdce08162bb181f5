"""Independent reference implementations used to check derived behavior.

These deliberately avoid the library's own code paths: the attention
oracle splits heads into separate arrays before it attends, the decoding
oracles re-run the decoder from a fresh cache over every whole prefix of
one unpadded input (teacher forcing, as in training), and the beam oracles build and sort every candidate in
Python or enumerate every decodable output; the n-gram oracles enumerate
n-grams positionally instead of via Counter arithmetic.
"""

import math

import numpy as np

from pickgen.autodiff import Tensor, log_softmax, no_grad
from pickgen.corpus import EOS_ID, SOS_ID, tokenize
from pickgen.decoding import BeamHypothesis
from pickgen.labeling import normalize, to_bio
from pickgen.model import EncoderOutput, decode_forward, encode


def per_head_attention(q, k, v, heads, bias, mask, g):
    """Multi-head attention over (B, L, d) arrays in the per-head
    formulation: every operand is first reshaped and permuted to (B, H, L,
    e), the (Lq, Lk, H) bias to (H, Lq, Lk), and the result and gradients
    are permuted and reshaped back. Returns the output and the gradients of
    sum(output * g) for q, k, v and bias, with the same float ops in the
    same order as the fused op."""

    def split(x):
        b, length, d = x.shape
        return x.reshape(b, length, heads, d // heads).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(x.shape[0], x.shape[2], -1)

    qh, kh, vh, gh = split(q), split(k), split(v), split(g)
    bh = bias.transpose(2, 0, 1)
    scale = 1.0 / math.sqrt(qh.shape[-1])
    logits = (qh @ np.swapaxes(kh, -1, -2)) * scale + bh + mask
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    gp = gh @ np.swapaxes(vh, -1, -2)
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
    grads = (merge((gs @ kh) * scale), merge((np.swapaxes(gs, -1, -2) @ qh) * scale),
             merge(np.swapaxes(p, -1, -2) @ gh), gs.sum(axis=0).transpose(1, 2, 0))
    return merge(p @ vh), grads


def oracle_hard_rows(sample, cfg):
    """Set-membership reimplementation of hard labeling: a context word is
    important iff its normalized form appears in the reference and not in
    the incomplete utterance, bypassing the cosine machinery entirely."""
    ref_forms = {f for _, f in normalize(tokenize(sample.reference, cfg), cfg)}
    inc_forms = {f for _, f in normalize(tokenize(sample.incomplete, cfg), cfg)}
    clues = ref_forms - inc_forms
    rows = []
    for utterance in sample.context:
        words = tokenize(utterance, cfg)
        bits = [0] * len(words)
        for idx, form in normalize(words, cfg):
            if form in clues:
                bits[idx] = 1
        rows.append(tuple(to_bio(bits)))
    return tuple(rows)


def encode_single(params, input_ids):
    """Encoder output of one unpadded input."""
    ids = np.asarray([input_ids], dtype=np.int64)
    mask = np.ones_like(ids, dtype=np.float64)
    with no_grad():
        return encode(ids, mask, params)


def next_log_probs(params, enc, prefixes):
    """Log-probabilities of the next token for each prefix, (k, V), from the
    decoder run over the whole prefix from a fresh cache."""
    ids = np.asarray(prefixes, dtype=np.int64)
    tiled = EncoderOutput(
        hidden=Tensor(np.repeat(enc.hidden.data, len(prefixes), axis=0)),
        mask=np.repeat(enc.mask, len(prefixes), axis=0),
    )
    with no_grad():
        logits = decode_forward(tiled, ids, params)
        return log_softmax(logits.data[:, -1, :])


def reference_beam_search(params, input_ids, beam_size, max_len,
                          length_penalty=1.0, nbest=1):
    """Beam search that builds every candidate as a BeamHypothesis and sorts
    them all on (-score, ids) each round."""
    enc = encode_single(params, input_ids)
    live = [BeamHypothesis((SOS_ID,), 0.0)]
    finished = []
    for _ in range(max_len):
        if not live:
            break
        log_p = next_log_probs(params, enc, [h.ids for h in live])
        candidates = []
        for parent, row in zip(live, log_p):
            for token, lp in enumerate(row):
                candidates.append(BeamHypothesis(
                    parent.ids + (token,), parent.logp + float(lp),
                    finished=token == EOS_ID,
                ))
        candidates.sort(key=lambda h: (-h.score(length_penalty), h.ids))
        survivors = candidates[:beam_size]
        live = [h for h in survivors if not h.finished]
        finished.extend(h for h in survivors if h.finished)
    pool = sorted(finished or live, key=lambda h: (-h.score(length_penalty), h.ids))
    return pool[:nbest]


def exhaustive_best_hypothesis(params, input_ids, max_len, penalty=1.0):
    """Global argmax over every EOS-terminated output of at most max_len
    generated tokens: returns (score, full id tuple including SOS/EOS)."""
    enc = encode_single(params, input_ids)
    vocab = params.config.vocab_size
    best = None

    def consider(score, ids):
        nonlocal best
        if best is None or score > best[0] or (score == best[0] and ids < best[1]):
            best = (score, ids)

    def expand(prefix, logp):
        row = next_log_probs(params, enc, [prefix])[0]
        ids = prefix + (EOS_ID,)
        consider((logp + float(row[EOS_ID])) / (len(ids) - 1) ** penalty, ids)
        if len(prefix) < max_len:
            for token in range(vocab):
                if token != EOS_ID:
                    expand(prefix + (token,), logp + float(row[token]))

    expand((SOS_ID,), 0.0)
    return best


def enumerate_ngrams(tokens, n):
    """All positional n-grams of a token list, as a list (not a Counter)."""
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def _clipped_f1(pred_grams, ref_grams):
    remaining = list(ref_grams)
    overlap = 0
    for gram in pred_grams:
        if gram in remaining:
            remaining.remove(gram)
            overlap += 1
    precision = overlap / len(pred_grams)
    recall = overlap / len(ref_grams)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def ngram_f1_by_enumeration(pred, ref, n):
    """Clipped n-gram F1 by direct positional matching."""
    pred_grams = enumerate_ngrams(pred, n)
    ref_grams = enumerate_ngrams(ref, n)
    if not pred_grams or not ref_grams:
        return 0.0
    return _clipped_f1(pred_grams, ref_grams)


def restored_positions_by_type(tokens, incomplete):
    """Indices of occurrences beyond the incomplete utterance's per-type
    count, found by slicing each type's position list (not by scanning)."""
    restored = set()
    for token in set(tokens):
        positions = [i for i, t in enumerate(tokens) if t == token]
        restored.update(positions[incomplete.count(token):])
    return restored


def restoration_f_by_enumeration(pred, ref, incomplete, n):
    """Clipped F1 over n-grams touching a restored position."""

    def grams(tokens):
        restored = restored_positions_by_type(tokens, incomplete)
        return [
            gram
            for i, gram in enumerate(enumerate_ngrams(tokens, n))
            if any(j in restored for j in range(i, i + n))
        ]

    pred_grams = grams(pred)
    ref_grams = grams(ref)
    if not pred_grams and not ref_grams:
        return 1.0
    if not pred_grams or not ref_grams:
        return 0.0
    return _clipped_f1(pred_grams, ref_grams)
