"""Evaluation metrics: ROUGE-n, corpus BLEU-n, restoration n-gram
F-scores, exact match, pickup ratio, character-length difference, and
length-bucketed BLEU, plus the report aggregator.

Restoration F isolates credit for recovered content: a token occurrence is
"restored" when it exceeds the incomplete utterance's budget for that
token, an n-gram is restored when it contains at least one restored
occurrence, and the F-score is the clipped-overlap F1 between the two
restored n-gram multisets.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

from .corpus import DialogueSample, LanguageConfig, tokenize
from .labeling import EmbeddingTable, LabeledSample, important_token_set, label_sample, normalize


class MetricError(ValueError):
    """Raised for empty corpora or malformed metric inputs."""


DEFAULT_BUCKETS: tuple[tuple[str, int, int | None], ...] = (
    ("<100", 0, 99),
    ("100-200", 100, 200),
    (">200", 201, None),
)


def ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(
        tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)
    )


def _clipped_overlap(a: Counter, b: Counter) -> int:
    return sum(min(count, b[gram]) for gram, count in a.items())


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rouge_n(pred: list[str], ref: list[str], n: int) -> float:
    """Clipped n-gram overlap F1; either side without n-grams scores 0."""
    if n < 1:
        raise MetricError("n must be >= 1")
    pred_grams = ngrams(pred, n)
    ref_grams = ngrams(ref, n)
    total_pred = sum(pred_grams.values())
    total_ref = sum(ref_grams.values())
    if total_pred == 0 or total_ref == 0:
        return 0.0
    overlap = _clipped_overlap(pred_grams, ref_grams)
    return _f1(overlap / total_pred, overlap / total_ref)


def bleu_n(pairs: list[tuple[list[str], list[str]]], n: int) -> float:
    """Corpus-level BLEU: geometric mean of clipped modified precisions for
    orders 1..n times the brevity penalty; any zero precision zeroes the
    score (no smoothing)."""
    if not pairs:
        raise MetricError("bleu_n needs a non-empty corpus")
    if n < 1:
        raise MetricError("n must be >= 1")
    log_sum = 0.0
    for order in range(1, n + 1):
        matched = 0
        total = 0
        for pred, ref in pairs:
            pred_grams = ngrams(pred, order)
            matched += _clipped_overlap(pred_grams, ngrams(ref, order))
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


def restored_ngrams(tokens: list[str], incomplete: list[str], n: int) -> Counter:
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


def restoration_f(
    pred: list[str], ref: list[str], incomplete: list[str], n: int
) -> float:
    """Clipped-overlap F1 between restored n-gram multisets; both sides
    empty scores 1 (nothing to restore, nothing invented)."""
    pred_restored = restored_ngrams(pred, incomplete, n)
    ref_restored = restored_ngrams(ref, incomplete, n)
    total_pred = sum(pred_restored.values())
    total_ref = sum(ref_restored.values())
    if total_pred == 0 and total_ref == 0:
        return 1.0
    if total_pred == 0 or total_ref == 0:
        return 0.0
    overlap = _clipped_overlap(pred_restored, ref_restored)
    return _f1(overlap / total_pred, overlap / total_ref)


def _squash_whitespace(text: str) -> str:
    return " ".join(text.split())


def exact_match(pred: str, ref: str) -> int:
    """1 iff the whitespace-normalized strings match, case-sensitively."""
    return int(_squash_whitespace(pred) == _squash_whitespace(ref))


def pickup_ratio(
    items: list[tuple[set[str], frozenset[str]]], mode: str = "any"
) -> float:
    """Fraction of samples whose normalized prediction tokens contain their
    important tokens; samples with no important tokens are excluded."""
    if mode not in ("any", "all"):
        raise MetricError(f"pickup mode must be any|all, got {mode!r}")
    hits = 0
    counted = 0
    for pred_forms, important in items:
        if not important:
            continue
        counted += 1
        if mode == "any":
            hits += bool(pred_forms & important)
        else:
            hits += important <= pred_forms
    if counted == 0:
        raise MetricError("every sample has an empty important-token set")
    return hits / counted


def length_difference(pairs: list[tuple[str, str]]) -> float:
    """Mean absolute character-length gap, on whitespace-normalized text."""
    if not pairs:
        raise MetricError("length_difference needs a non-empty corpus")
    return sum(
        abs(len(_squash_whitespace(p)) - len(_squash_whitespace(r)))
        for p, r in pairs
    ) / len(pairs)


def bleu_by_length(
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
    scores = {label: bleu_n(pairs, n) for label, pairs in grouped.items()}
    counts = {label: len(pairs) for label, pairs in grouped.items()}
    return scores, counts


def input_char_length(sample: DialogueSample, cfg: LanguageConfig) -> int:
    """Character length of the raw input text (context plus incomplete)."""
    return len(_squash_whitespace(cfg.joiner.join((*sample.context, sample.incomplete))))


def picker_f1(pred_rows: list[list[str]], gold_rows: list[list[str]]) -> float:
    """Token-level F1 of the positive (B or I) class across tag rows."""
    tp = fp = fn = 0
    for pred, gold in zip(pred_rows, gold_rows):
        if len(pred) != len(gold):
            raise MetricError("tag rows must align position by position")
        for p, g in zip(pred, gold):
            p_pos = p != "O"
            g_pos = g != "O"
            tp += p_pos and g_pos
            fp += p_pos and not g_pos
            fn += g_pos and not p_pos
    if 2 * tp + fp + fn == 0:
        return 1.0
    return 2 * tp / (2 * tp + fp + fn)


@dataclass
class EvalReport:
    """Metric bundle; percentages in [0,100], difference in characters."""

    rouge1: float
    rouge2: float
    bleu1: float
    bleu2: float
    bleu4: float
    f1: float
    f2: float
    f3: float
    em: float
    pickup_ratio: float
    pickup_mode: str
    difference: float
    bleu_by_length: dict[str, float]
    bucket_counts: dict[str, int]
    sample_count: int

    def to_dict(self) -> dict:
        return {
            "rouge1": self.rouge1,
            "rouge2": self.rouge2,
            "bleu1": self.bleu1,
            "bleu2": self.bleu2,
            "bleu4": self.bleu4,
            "f1": self.f1,
            "f2": self.f2,
            "f3": self.f3,
            "em": self.em,
            "pickup_ratio": self.pickup_ratio,
            "pickup_mode": self.pickup_mode,
            "difference": self.difference,
            "bleu_by_length": self.bleu_by_length,
            "bucket_counts": self.bucket_counts,
            "sample_count": self.sample_count,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_table(self) -> str:
        rows = [
            ("rouge1", f"{self.rouge1:.1f}"),
            ("rouge2", f"{self.rouge2:.1f}"),
            ("bleu1", f"{self.bleu1:.1f}"),
            ("bleu2", f"{self.bleu2:.1f}"),
            ("bleu4", f"{self.bleu4:.1f}"),
            ("f1", f"{self.f1:.1f}"),
            ("f2", f"{self.f2:.1f}"),
            ("f3", f"{self.f3:.1f}"),
            ("em", f"{self.em:.1f}"),
            (f"pickup_ratio ({self.pickup_mode})", f"{self.pickup_ratio:.1f}"),
            ("difference", f"{self.difference:.2f}"),
        ]
        for label in self.bleu_by_length:
            rows.append(
                (
                    f"bleu2 len {label}",
                    f"{self.bleu_by_length[label]:.1f} "
                    f"(n={self.bucket_counts[label]})",
                )
            )
        rows.append(("samples", str(self.sample_count)))
        width = max(len(name) for name, _ in rows)
        lines = [f"{name:<{width}}  {value}" for name, value in rows]
        return "\n".join(lines) + "\n"


def evaluate(
    predictions: dict[str, str],
    gold: list[DialogueSample],
    cfg: LanguageConfig,
    labeled: list[LabeledSample] | None = None,
    pickup_mode: str = "any",
    bucket_bleu_n: int = 2,
    emb: EmbeddingTable | None = None,
) -> EvalReport:
    """Aggregate every reported metric over a prediction/gold pairing.

    Pickup ratio uses the provided labels when given;
    otherwise hard labels are derived on the fly with the (hash-fallback)
    embedding table.
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
        by_id = {}
        emb = emb if emb is not None else EmbeddingTable()
        for sample in gold:
            by_id[sample.id] = label_sample(sample, "hard", emb, cfg)

    pred_tokens = {s.id: tokenize(predictions[s.id], cfg) for s in gold}
    ref_tokens = {s.id: tokenize(s.reference, cfg) for s in gold}
    inc_tokens = {s.id: tokenize(s.incomplete, cfg) for s in gold}
    pairs = [(pred_tokens[s.id], ref_tokens[s.id]) for s in gold]

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values)

    rouge1 = mean(rouge_n(pred_tokens[s.id], ref_tokens[s.id], 1) for s in gold)
    rouge2 = mean(rouge_n(pred_tokens[s.id], ref_tokens[s.id], 2) for s in gold)
    f_scores = {
        n: mean(
            restoration_f(pred_tokens[s.id], ref_tokens[s.id], inc_tokens[s.id], n)
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
    bucket_scores, bucket_counts = bleu_by_length(triples, bucket_bleu_n)
    return EvalReport(
        rouge1=100.0 * rouge1,
        rouge2=100.0 * rouge2,
        bleu1=100.0 * bleu_n(pairs, 1),
        bleu2=100.0 * bleu_n(pairs, 2),
        bleu4=100.0 * bleu_n(pairs, 4),
        f1=100.0 * f_scores[1],
        f2=100.0 * f_scores[2],
        f3=100.0 * f_scores[3],
        em=100.0 * em,
        pickup_ratio=100.0 * pickup,
        pickup_mode=pickup_mode,
        difference=difference,
        bleu_by_length={k: 100.0 * v for k, v in bucket_scores.items()},
        bucket_counts=bucket_counts,
        sample_count=len(gold),
    )
