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
from dataclasses import asdict, dataclass

from .corpus import DialogueSample, LanguageConfig, tokenize
from .labeling import EmbeddingTable, LabeledSample, important_token_set, label_sample, normalize


class MetricError(ValueError):
    """Raised for empty corpora or malformed metric inputs."""


DEFAULT_BUCKETS: tuple[tuple[str, int, int | None], ...] = (
    ("<100", 0, 99),
    ("100-200", 100, 200),
    (">200", 201, None),
)


Counts = tuple[int, int, int]  # clipped matches, prediction n-grams, reference n-grams


def _overlap(pred_grams: list, ref_grams: list) -> Counts:
    """Clipped matches of two n-gram lists, and both lengths."""
    unmatched = Counter(ref_grams)
    matched = 0
    for gram in pred_grams:
        if unmatched[gram] > 0:
            unmatched[gram] -= 1
            matched += 1
    return matched, len(pred_grams), len(ref_grams)


def _restored_flags(tokens: list[str], budget: Counter) -> list[bool]:
    """Per position, whether the occurrence is restored: the first budget[t]
    occurrences of t are carried over, later ones restored."""
    seen: Counter = Counter()
    flags = []
    for tok in tokens:
        seen[tok] += 1
        flags.append(seen[tok] > budget[tok])
    return flags


def count_ngrams(
    pred: list[str], ref: list[str], incomplete: list[str], orders: int,
    restored_orders: int = 0,
) -> tuple[list[Counts], list[Counts]]:
    """Count a prediction against its reference once: (plain, restored),
    where plain[n - 1] holds the Counts of all n-grams for n = 1..orders and
    restored[n - 1] those of the restored n-grams (holding an occurrence that
    _restored_flags marks against incomplete's budget) for n up to
    restored_orders."""
    budget = Counter(incomplete)
    pred_flags, ref_flags = _restored_flags(pred, budget), _restored_flags(ref, budget)
    pred_window, ref_window = [False] * len(pred), [False] * len(ref)
    plain: list[Counts] = []
    restored: list[Counts] = []
    for n in range(1, max(orders, restored_orders) + 1):
        pred_grams = pred if n == 1 else list(zip(*(pred[i:] for i in range(n))))
        ref_grams = ref if n == 1 else list(zip(*(ref[i:] for i in range(n))))
        if n <= orders:
            plain.append(_overlap(pred_grams, ref_grams))
        if n <= restored_orders:  # an n-gram is restored if any of its n positions is
            pred_window = [a or b for a, b in zip(pred_window, pred_flags[n - 1:])]
            ref_window = [a or b for a, b in zip(ref_window, ref_flags[n - 1:])]
            restored.append(_overlap([g for g, hit in zip(pred_grams, pred_window) if hit],
                                     [g for g, hit in zip(ref_grams, ref_window) if hit]))
    return plain, restored


def _overlap_f1(counts: Counts, empty: float = 0.0) -> float:
    """Clipped-overlap F1 of Counts: `empty` when neither side has an
    n-gram, 0 when one side has none."""
    matched, total_pred, total_ref = counts
    if total_pred == 0 and total_ref == 0:
        return empty
    if matched == 0:
        return 0.0
    precision, recall = matched / total_pred, matched / total_ref
    return 2.0 * precision * recall / (precision + recall)


def rouge_n(pred: list[str], ref: list[str], n: int) -> float:
    """Clipped n-gram overlap F1; either side without n-grams scores 0."""
    check_bleu_order(n)
    return _overlap_f1(count_ngrams(pred, ref, [], n)[0][n - 1])


def check_bleu_order(n: int) -> None:
    """Raise MetricError unless n is an n-gram order, that is, n >= 1."""
    if n < 1:
        raise MetricError("n must be >= 1")


def _corpus_bleu(samples: list[list[Counts]], n: int) -> float:
    """Corpus BLEU-n from each sample's plain Counts for orders 1..n, summed
    over the corpus; the order-1 totals are the token lengths."""
    log_sum = 0.0
    for order in range(n):
        matched = sum(counts[order][0] for counts in samples)
        total = sum(counts[order][1] for counts in samples)
        if total == 0 or matched == 0:
            return 0.0
        log_sum += math.log(matched / total)
    pred_len, ref_len = (sum(counts[0][k] for counts in samples) for k in (1, 2))
    brevity = math.exp(min(0.0, 1.0 - ref_len / pred_len))
    return brevity * math.exp(log_sum / n)


def bleu_n(pairs: list[tuple[list[str], list[str]]], n: int) -> float:
    """Corpus-level BLEU: geometric mean of clipped modified precisions for
    orders 1..n times the brevity penalty; any zero precision zeroes the
    score (no smoothing)."""
    if not pairs:
        raise MetricError("bleu_n needs a non-empty corpus")
    check_bleu_order(n)
    return _corpus_bleu([count_ngrams(pred, ref, [], n)[0] for pred, ref in pairs], n)


def restoration_f(
    pred: list[str], ref: list[str], incomplete: list[str], n: int
) -> float:
    """Clipped-overlap F1 between restored n-gram multisets; both sides
    empty scores 1 (nothing to restore, nothing invented)."""
    check_bleu_order(n)
    return _overlap_f1(count_ngrams(pred, ref, incomplete, 0, n)[1][n - 1], empty=1.0)


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
        return asdict(self)

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
) -> EvalReport:
    """Aggregate every reported metric over a prediction/gold pairing.

    Pickup ratio uses the provided labels when given; otherwise hard labels
    are derived on the fly (they read no word vectors).
    """
    if not gold:
        raise MetricError("gold corpus is empty")
    seen: set[str] = set()
    for sample in gold:
        if sample.id in seen:
            raise MetricError(f"repeated gold sample id {sample.id!r}")
        seen.add(sample.id)
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
    plain, restored = zip(*(
        count_ngrams(pred_tokens[s.id], tokenize(s.reference, cfg),
                     tokenize(s.incomplete, cfg), max(4, bucket_bleu_n), 3)
        for s in gold
    ))

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values)

    rouge1 = mean(_overlap_f1(c[0]) for c in plain)
    rouge2 = mean(_overlap_f1(c[1]) for c in plain)
    f_scores = {
        n: mean(_overlap_f1(r[n - 1], empty=1.0) for r in restored)
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
    check_bleu_order(bucket_bleu_n)
    buckets: dict[str, list[list[Counts]]] = {}  # in order of first sample
    for s, sample_plain in zip(gold, plain):
        length = input_char_length(s, cfg)
        for label, lo, hi in DEFAULT_BUCKETS:
            if length >= lo and (hi is None or length <= hi):
                buckets.setdefault(label, []).append(sample_plain)
                break
    return EvalReport(
        rouge1=100.0 * rouge1,
        rouge2=100.0 * rouge2,
        bleu1=100.0 * _corpus_bleu(plain, 1),
        bleu2=100.0 * _corpus_bleu(plain, 2),
        bleu4=100.0 * _corpus_bleu(plain, 4),
        f1=100.0 * f_scores[1],
        f2=100.0 * f_scores[2],
        f3=100.0 * f_scores[3],
        em=100.0 * em,
        pickup_ratio=100.0 * pickup,
        pickup_mode=pickup_mode,
        difference=difference,
        bleu_by_length={
            label: 100.0 * _corpus_bleu(group, bucket_bleu_n)
            for label, group in buckets.items()
        },
        bucket_counts={label: len(group) for label, group in buckets.items()},
        sample_count=len(gold),
    )
