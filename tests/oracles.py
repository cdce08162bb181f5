"""Independent reference implementations used to check derived behavior.

These deliberately avoid the library's own code paths: the attention
oracle splits heads into separate arrays before it attends and shifts
rows by numpy's plain last-axis max, the backward oracle walks a graph
without using it up, the decoding oracles re-run the decoder from a fresh
cache over every whole prefix of one unpadded input (teacher forcing, as
in training), and the beam oracles build and sort every candidate in
Python or enumerate every decodable output; the cosine oracle scores one
pair at a time, with its own norms; the n-gram oracles enumerate n-grams
positionally instead of via Counter arithmetic, and the per-metric
evaluate recounts every sample for every metric. weighted_sum, the one
graph node here, is how tests start a backward with a chosen upstream
gradient.
"""

import math
from collections import Counter

import numpy as np

from pickgen.autodiff import Tensor, log_softmax, no_grad
from pickgen.corpus import EOS_ID, SOS_ID, DialogueSample, LanguageConfig, tokenize
from pickgen.decoding import BeamHypothesis
from pickgen.labeling import (
    EmbeddingTable,
    LabeledSample,
    important_token_set,
    label_sample,
    normalize,
    to_bio,
)
from pickgen.metrics import (
    DEFAULT_BUCKETS,
    EvalReport,
    MetricError,
    check_bleu_order,
    exact_match,
    input_char_length,
    length_difference,
    pickup_ratio,
)
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


def weighted_sum(out, g=1.0):
    """sum(out * g) as one scalar node whose backward hands out the array g
    (broadcast to out's shape) times the upstream gradient: the way a test
    starts backward at out with a chosen gradient."""
    g = np.broadcast_to(np.asarray(g, dtype=np.float64), out.shape)
    return Tensor._make((out.data * g).sum(), (out,), lambda up: (g * up,))


def retained_backward(loss):
    """Reverse-mode walk that keeps the whole graph: order every node
    parents first by depth-first search, reset every grad, then run each
    closure from the loss down and add gradients out of place, in the order
    Tensor.backward runs them. Every node keeps its grad, parent links and
    closure, so the graph can be walked again. Returns the nodes, parents
    first."""
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node._parents)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward_fn is None:
            continue
        for parent, grad in zip(node._parents, node._backward_fn(node.grad)):
            if parent.grad is not None:
                parent.grad = parent.grad + grad
            elif parent.requires_grad or parent._parents:
                parent.grad = grad
    return order


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


def similarity(h_vec: np.ndarray, c_vec: np.ndarray) -> float:
    """Cosine similarity of one pair of vectors, norms taken per call; zero
    vectors score 0 by convention."""
    nh = float(np.linalg.norm(h_vec))
    nc = float(np.linalg.norm(c_vec))
    if nh == 0.0 or nc == 0.0:
        return 0.0
    return float(np.dot(h_vec, c_vec) / (nh * nc))


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


# ---------------------------------------------------------------------------
# The per-metric evaluate: every metric recounts the samples' n-grams with
# Counters, as metrics.evaluate did before it counted each sample once.
# metrics.evaluate's report must be byte-equal to this one's.

def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(
        tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)
    )


def _clipped_overlap(a: Counter, b: Counter) -> int:
    return sum(min(count, b[gram]) for gram, count in a.items())


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _rouge_n(pred: list[str], ref: list[str], n: int) -> float:
    """Clipped n-gram overlap F1; either side without n-grams scores 0."""
    if n < 1:
        raise MetricError("n must be >= 1")
    pred_grams = _ngrams(pred, n)
    ref_grams = _ngrams(ref, n)
    total_pred = sum(pred_grams.values())
    total_ref = sum(ref_grams.values())
    if total_pred == 0 or total_ref == 0:
        return 0.0
    overlap = _clipped_overlap(pred_grams, ref_grams)
    return _f1(overlap / total_pred, overlap / total_ref)


def _bleu_n(pairs: list[tuple[list[str], list[str]]], n: int) -> float:
    """Corpus-level BLEU: geometric mean of clipped modified precisions for
    orders 1..n times the brevity penalty; any zero precision zeroes the
    score (no smoothing)."""
    if not pairs:
        raise MetricError("bleu_n needs a non-empty corpus")
    check_bleu_order(n)
    log_sum = 0.0
    for order in range(1, n + 1):
        matched = 0
        total = 0
        for pred, ref in pairs:
            pred_grams = _ngrams(pred, order)
            matched += _clipped_overlap(pred_grams, _ngrams(ref, order))
            total += sum(pred_grams.values())
        if total == 0 or matched == 0:
            return 0.0
        log_sum += math.log(matched / total)
    pred_len = sum(len(p) for p, _ in pairs)
    ref_len = sum(len(r) for _, r in pairs)
    if pred_len == 0:
        return 0.0
    brevity = math.exp(min(0.0, 1.0 - ref_len / pred_len))
    return brevity * math.exp(log_sum / n)


def _restored_ngrams(tokens: list[str], incomplete: list[str], n: int) -> Counter:
    """N-grams containing at least one restored token occurrence.

    Occurrences are budgeted per type: the first count_incomplete(t)
    occurrences of t are considered carried over, later ones restored.
    """
    budget = Counter(incomplete)
    seen: Counter = Counter()
    restored_positions = []
    for i, tok in enumerate(tokens):
        seen[tok] += 1
        if seen[tok] > budget[tok]:
            restored_positions.append(i)
    restored = set(restored_positions)
    out: Counter = Counter()
    for i in range(len(tokens) - n + 1):
        if any(j in restored for j in range(i, i + n)):
            out[tuple(tokens[i : i + n])] += 1
    return out


def _restoration_f(
    pred: list[str], ref: list[str], incomplete: list[str], n: int
) -> float:
    """Clipped-overlap F1 between restored n-gram multisets; both sides
    empty scores 1 (nothing to restore, nothing invented)."""
    pred_restored = _restored_ngrams(pred, incomplete, n)
    ref_restored = _restored_ngrams(ref, incomplete, n)
    total_pred = sum(pred_restored.values())
    total_ref = sum(ref_restored.values())
    if total_pred == 0 and total_ref == 0:
        return 1.0
    if total_pred == 0 or total_ref == 0:
        return 0.0
    overlap = _clipped_overlap(pred_restored, ref_restored)
    return _f1(overlap / total_pred, overlap / total_ref)


def _bleu_by_length(
    triples: list[tuple[list[str], list[str], int]], n: int = 2
) -> tuple[dict[str, float], dict[str, int]]:
    """Corpus BLEU-n per DEFAULT_BUCKETS input-length bucket; triples carry
    the input character length; empty buckets are absent from the result."""
    grouped: dict[str, list[tuple[list[str], list[str]]]] = {}
    for pred, ref, length in triples:
        for label, lo, hi in DEFAULT_BUCKETS:
            if length >= lo and (hi is None or length <= hi):
                grouped.setdefault(label, []).append((pred, ref))
                break
    scores = {label: _bleu_n(pairs, n) for label, pairs in grouped.items()}
    counts = {label: len(pairs) for label, pairs in grouped.items()}
    return scores, counts


def evaluate_per_metric(
    predictions: dict[str, str],
    gold: list[DialogueSample],
    cfg: LanguageConfig,
    labeled: list[LabeledSample] | None = None,
    pickup_mode: str = "any",
    bucket_bleu_n: int = 2,
) -> EvalReport:
    """Aggregate every reported metric over a prediction/gold pairing.

    Pickup ratio uses the provided labels when given; otherwise hard labels
    are derived on the fly (they read no word vectors).
    """
    if not gold:
        raise MetricError("gold corpus is empty")
    for sample in gold:
        if sample.id not in predictions:
            raise MetricError(f"missing prediction for sample id {sample.id!r}")
        if sample.reference is None:
            raise MetricError(f"sample {sample.id!r} lacks a reference")
    if labeled is not None:
        by_id = {item.sample.id: item for item in labeled}
    else:
        by_id = {s.id: label_sample(s, "hard", EmbeddingTable(), cfg) for s in gold}

    pred_tokens = {s.id: tokenize(predictions[s.id], cfg) for s in gold}
    ref_tokens = {s.id: tokenize(s.reference, cfg) for s in gold}
    inc_tokens = {s.id: tokenize(s.incomplete, cfg) for s in gold}
    pairs = [(pred_tokens[s.id], ref_tokens[s.id]) for s in gold]

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values)

    rouge1 = mean(_rouge_n(pred_tokens[s.id], ref_tokens[s.id], 1) for s in gold)
    rouge2 = mean(_rouge_n(pred_tokens[s.id], ref_tokens[s.id], 2) for s in gold)
    f_scores = {
        n: mean(
            _restoration_f(pred_tokens[s.id], ref_tokens[s.id], inc_tokens[s.id], n)
            for s in gold
        )
        for n in (1, 2, 3)
    }
    em = mean(exact_match(predictions[s.id], s.reference) for s in gold)
    pickup_items = []
    for s in gold:
        item = by_id.get(s.id)
        if item is None:
            raise MetricError(f"missing labels for sample id {s.id!r}")
        pred_forms = {form for _, form in normalize(pred_tokens[s.id], cfg)}
        pickup_items.append((pred_forms, important_token_set(item, cfg)))
    pickup = pickup_ratio(pickup_items, pickup_mode)
    difference = length_difference(
        [(predictions[s.id], s.reference) for s in gold]
    )
    triples = [
        (pred_tokens[s.id], ref_tokens[s.id], input_char_length(s, cfg))
        for s in gold
    ]
    bucket_scores, bucket_counts = _bleu_by_length(triples, bucket_bleu_n)
    return EvalReport(
        rouge1=100.0 * rouge1,
        rouge2=100.0 * rouge2,
        bleu1=100.0 * _bleu_n(pairs, 1),
        bleu2=100.0 * _bleu_n(pairs, 2),
        bleu4=100.0 * _bleu_n(pairs, 4),
        f1=100.0 * f_scores[1],
        f2=100.0 * f_scores[2],
        f3=100.0 * f_scores[3],
        em=100.0 * em,
        pickup_ratio=None if pickup is None else 100.0 * pickup,
        pickup_mode=pickup_mode,
        difference=difference,
        bleu_by_length={k: 100.0 * v for k, v in bucket_scores.items()},
        bucket_counts=bucket_counts,
        sample_count=len(gold),
    )
