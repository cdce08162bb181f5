"""Automatic creation of picker supervision from (context, incomplete,
reference) triples.

Pipeline: normalize both sides and take the reference tokens missing from the
incomplete utterance as clue tokens. Hard BIO tags mark context words whose
normalized form is a clue; soft scores are a word's best cosine similarity to
a clue by word vectors, where an exact string match scores 1.0.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import textnorm
from .corpus import (
    DialogueSample,
    LanguageConfig,
    _parse_record,
    read_jsonl,
    sample_to_record,
    tokenize,
    write_jsonl,
)

# Largest float64 strictly below 1.0; non-exact cosine scores are capped
# here so that a score of exactly 1.0 always means an exact string match.
_BELOW_ONE = np.nextafter(1.0, 0.0)

LABEL_MODES = ("soft", "hard")
BIO_TAGS = ("O", "B", "I")
BIO_TO_CLASS = {"O": 0, "B": 1, "I": 2}


class LabelError(ValueError):
    """Raised for invalid label requests or malformed labeled records."""


@dataclass(frozen=True)
class EmbeddingTable:
    """Fixed word vectors with a configurable policy for absent tokens.

    fallback "hash" draws a deterministic pseudo-random vector from a
    digest of the token, so any corpus can be scored without an external
    vector file; "zero" scores absent tokens 0 against everything.
    """

    vectors: dict[str, np.ndarray] = field(default_factory=dict)
    dim: int = 32
    fallback: str = "hash"
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise LabelError("embedding dimension must be >= 1")
        if self.fallback not in ("hash", "zero"):
            raise LabelError(f"unknown fallback policy {self.fallback!r}")

    def vector(self, token: str) -> np.ndarray:
        vec = self.vectors.get(token)
        if vec is not None:
            return vec
        if self.fallback == "zero":
            return np.zeros(self.dim)
        digest = hashlib.blake2b(
            token.encode("utf-8"), digest_size=8, salt=str(self.seed).encode()[:16]
        ).digest()
        rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
        return rng.standard_normal(self.dim)


def load_embeddings(path: str, fallback: str = "hash", seed: int = 0) -> EmbeddingTable:
    """Read the plain-text word-vector format: a "count dim" header line,
    then one "token v1 ... vd" line per token."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise LabelError(f"{path}: expected 'count dim' header line")
        count, dim = int(header[0]), int(header[1])
        vectors: dict[str, np.ndarray] = {}
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise LabelError(f"{path}:{lineno}: expected token plus {dim} values")
            vectors[parts[0]] = np.array([float(x) for x in parts[1:]])
    if len(vectors) != count:
        raise LabelError(f"{path}: header declared {count} vectors, found {len(vectors)}")
    return EmbeddingTable(vectors, dim, fallback, seed)


@dataclass(frozen=True)
class ClueTokenSet:
    """Normalized reference tokens absent from the incomplete utterance."""

    tokens: frozenset[str]
    surface_forms: dict[str, tuple[str, ...]]

    def ordered(self) -> tuple[str, ...]:
        return tuple(sorted(self.tokens))

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class PickerLabels:
    """Per-context-word supervision: BIO tags (hard) or soft scores."""

    mode: str
    tags: tuple[tuple[str, ...], ...] | None = None
    scores: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.mode not in LABEL_MODES:
            raise LabelError(f"unknown label mode {self.mode!r}")
        if self.mode == "soft":
            if self.scores is None or self.tags is not None:
                raise LabelError("soft labels carry scores only")
            for row in self.scores:
                if any(not 0.0 <= s <= 1.0 for s in row):
                    raise LabelError("soft scores must lie in [0,1]")
        else:
            if self.tags is None or self.scores is not None:
                raise LabelError(f"{self.mode} labels carry tags only")
            for row in self.tags:
                prev = "O"
                for tag in row:
                    if tag not in BIO_TAGS:
                        raise LabelError(f"unknown BIO tag {tag!r}")
                    if tag == "I" and prev == "O":
                        raise LabelError("I tag must follow B or I")
                    prev = tag

    def marked(self) -> tuple[tuple[bool, ...], ...]:
        """Per context word, whether it is marked important: a tag other
        than O, or a score above 0.5."""
        if self.tags is not None:
            return tuple(tuple(tag != "O" for tag in row) for row in self.tags)
        return tuple(tuple(score > 0.5 for score in row) for row in self.scores)

    def per_utterance_lengths(self) -> tuple[int, ...]:
        rows = self.tags if self.tags is not None else self.scores
        return tuple(len(r) for r in rows)


@dataclass(frozen=True)
class LabeledSample:
    sample: DialogueSample
    labels: PickerLabels


def normalize(tokens: list[str], cfg: LanguageConfig) -> list[tuple[int, str]]:
    """Drop stopwords, then lowercase survivors and, where the language
    stems, lemmatize and stem them, keeping each survivor's original
    index."""
    out: list[tuple[int, str]] = []
    for i, token in enumerate(tokens):
        form = token.lower()
        if token in cfg.stopwords or form in cfg.stopwords:
            continue
        if cfg.stems:
            form = textnorm.porter_stem(textnorm.lemmatize(form))
        if form:
            out.append((i, form))
    return out


def extract_clue_tokens(
    reference: str, incomplete: str, cfg: LanguageConfig
) -> ClueTokenSet:
    """Normalized reference tokens that the incomplete utterance lacks."""
    ref_norm = normalize(tokenize(reference, cfg), cfg)
    inc_norm = normalize(tokenize(incomplete, cfg), cfg)
    inc_set = {form for _, form in inc_norm}
    ref_tokens = tokenize(reference, cfg)
    clue_tokens = {form for _, form in ref_norm if form not in inc_set}
    provenance: dict[str, tuple[str, ...]] = {}
    for idx, form in ref_norm:
        if form in clue_tokens:
            surfaces = provenance.get(form, ())
            if ref_tokens[idx] not in surfaces:
                provenance[form] = surfaces + (ref_tokens[idx],)
    return ClueTokenSet(frozenset(clue_tokens), provenance)


def similarity(h_vec: np.ndarray, c_vec: np.ndarray) -> float:
    """Cosine similarity; zero vectors score 0 by convention."""
    nh = float(np.linalg.norm(h_vec))
    nc = float(np.linalg.norm(c_vec))
    if nh == 0.0 or nc == 0.0:
        return 0.0
    return float(np.dot(h_vec, c_vec) / (nh * nc))


def score_matrix(
    context_words: list[str], clues: ClueTokenSet, emb: EmbeddingTable
) -> np.ndarray:
    """Cosine score of every normalized context word against every clue.

    Identical strings score exactly 1.0; every other pair is capped just
    below 1.0 so the hard-label test "score == 1" identifies exact matches
    and nothing else.
    """
    ordered = clues.ordered()
    d = np.zeros((len(context_words), len(ordered)))
    for j, clue in enumerate(ordered):
        c_vec = emb.vector(clue)
        for i, word in enumerate(context_words):
            if word == clue:
                d[i, j] = 1.0
            else:
                d[i, j] = min(similarity(emb.vector(word), c_vec), _BELOW_ONE)
    return d


def soft_labels(d: np.ndarray) -> np.ndarray:
    """Row max clamped into [0,1]; rows with no clues score 0."""
    if d.shape[1] == 0:
        return np.zeros(d.shape[0])
    return np.clip(d.max(axis=1), 0.0, 1.0)


def hard_labels(d: np.ndarray) -> np.ndarray:
    """1 exactly where some clue hit the exact-match short circuit: where the
    word is a clue token, which label_sample tests by set membership."""
    if d.shape[1] == 0:
        return np.zeros(d.shape[0], dtype=np.int64)
    return (d == 1.0).any(axis=1).astype(np.int64)


def to_bio(bits: list[int]) -> list[str]:
    """Maximal runs of important surface words become B I I...; rest O."""
    tags = []
    prev = 0
    for bit in bits:
        if bit:
            tags.append("I" if prev else "B")
        else:
            tags.append("O")
        prev = bit
    return tags


def label_sample(
    sample: DialogueSample,
    mode: str,
    emb: EmbeddingTable,
    cfg: LanguageConfig,
) -> LabeledSample:
    """Run the full labeling pipeline over one sample (emb: soft mode only)."""
    if mode not in LABEL_MODES:
        raise LabelError(f"label_sample supports soft|hard, got {mode!r}")
    if sample.reference is None:
        raise LabelError(f"sample {sample.id!r}: labels require a reference")
    clues = extract_clue_tokens(sample.reference, sample.incomplete, cfg)
    tag_rows: list[tuple[str, ...]] = []
    score_rows: list[tuple[float, ...]] = []
    for utterance in sample.context:
        words = tokenize(utterance, cfg)
        surviving = normalize(words, cfg)
        if mode == "soft":
            d = score_matrix([form for _, form in surviving], clues, emb)
            scores = np.zeros(len(words))
            for (surface_idx, _), value in zip(surviving, soft_labels(d)):
                scores[surface_idx] = value
            score_rows.append(tuple(float(s) for s in scores))
        else:
            bits = [0] * len(words)
            for surface_idx, form in surviving:
                bits[surface_idx] = int(form in clues.tokens)
            tag_rows.append(tuple(to_bio(bits)))
    if mode == "soft":
        labels = PickerLabels("soft", scores=tuple(score_rows))
    else:
        labels = PickerLabels("hard", tags=tuple(tag_rows))
    return LabeledSample(sample, labels)


def label_corpus(
    samples: list[DialogueSample],
    mode: str,
    emb: EmbeddingTable,
    cfg: LanguageConfig,
) -> list[LabeledSample]:
    return [label_sample(s, mode, emb, cfg) for s in samples]


# ---------------------------------------------------------------------------
# Labeled-corpus JSONL I/O. The wire format mirrors the raw corpus with one
# extra "labels" object: {"mode":"hard","tags":[["O","B",...],...]} or
# {"mode":"soft","scores":[[...],...]}.

def labeled_to_record(labeled: LabeledSample) -> dict:
    record = sample_to_record(labeled.sample)
    labels: dict = {"mode": labeled.labels.mode}
    if labeled.labels.tags is not None:
        labels["tags"] = [list(row) for row in labeled.labels.tags]
    else:
        labels["scores"] = [list(row) for row in labeled.labels.scores]
    record["labels"] = labels
    return record


def save_labeled_corpus(labeled: list[LabeledSample], path: str) -> None:
    write_jsonl(map(labeled_to_record, labeled), path)


def load_labeled_corpus(path: str, cfg: LanguageConfig) -> list[LabeledSample]:
    out: list[LabeledSample] = []
    for where, record in read_jsonl(path, LabelError):
        if "labels" not in record:
            raise LabelError(f"{where}: missing 'labels' field")
        raw = record.pop("labels")
        sample = _parse_record(record, where, default_id=len(out))
        labels = _parse_labels(raw, where)
        problem = alignment_problem(sample, labels, cfg)
        if problem:
            raise LabelError(f"{where}: {problem}")
        out.append(LabeledSample(sample, labels))
    if not out:
        raise LabelError(f"{path}: labeled corpus file is empty")
    return out


def _parse_labels(raw, where: str) -> PickerLabels:
    if not isinstance(raw, dict) or "mode" not in raw:
        raise LabelError(f"{where}: 'labels' must be an object with 'mode'")
    mode = raw["mode"]
    try:
        if mode == "soft":
            scores = tuple(tuple(float(s) for s in row) for row in raw["scores"])
            return PickerLabels("soft", scores=scores)
        tags = tuple(tuple(str(t) for t in row) for row in raw["tags"])
        return PickerLabels(mode, tags=tags)
    except (KeyError, TypeError, LabelError) as exc:
        raise LabelError(f"{where}: bad labels ({exc})") from exc


def alignment_problem(
    sample: DialogueSample, labels: PickerLabels, cfg: LanguageConfig
) -> str | None:
    """Why the label rows do not match the sample's context utterances word
    for word, or None when they do."""
    lengths = labels.per_utterance_lengths()
    if len(lengths) != len(sample.context):
        return f"{len(lengths)} label rows for {len(sample.context)} context utterances"
    for k, (utterance, n) in enumerate(zip(sample.context, lengths)):
        words = len(tokenize(utterance, cfg))
        if words != n:
            return f"utterance {k} has {words} words but {n} labels"
    return None


def label_density(labeled: list[LabeledSample]) -> float:
    """Fraction of context words marked important (PickerLabels.marked)."""
    rows = [row for item in labeled for row in item.labels.marked()]
    total = sum(map(len, rows))
    return sum(map(sum, rows)) / total if total else 0.0


def important_token_set(labeled: LabeledSample, cfg: LanguageConfig) -> frozenset[str]:
    """Normalized forms of the context words the labels mark
    (PickerLabels.marked); used by the pickup-ratio metric."""
    forms: set[str] = set()
    for utterance, row in zip(labeled.sample.context, labeled.labels.marked()):
        for word, hit in zip(tokenize(utterance, cfg), row):
            if hit:
                forms.update(form for _, form in normalize([word], cfg))
    return frozenset(forms)
