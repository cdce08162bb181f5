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
from functools import lru_cache

import numpy as np

from . import textnorm
from .corpus import (
    DialogueSample,
    LanguageConfig,
    _parse_record,
    read_jsonl,
    read_lines,
    sample_to_record,
    tokenize,
    write_jsonl,
)

# Largest float64 strictly below 1.0; non-exact cosine scores are capped
# here so that a score of exactly 1.0 always means an exact string match.
_BELOW_ONE = np.nextafter(1.0, 0.0)

LABEL_MODES = ("soft", "hard")
BIO_TAGS = ("O", "B", "I")
PICKER_ARITY = {"soft": 1, "hard": len(BIO_TAGS)}  # picker outputs per position
BIO_TO_CLASS = {tag: k for k, tag in enumerate(BIO_TAGS)}


class LabelError(ValueError):
    """Raised for invalid label requests or malformed labeled records."""


@dataclass(frozen=True)
class EmbeddingTable:
    """Fixed word vectors; a token absent from them gets a deterministic
    pseudo-random vector drawn from a digest of the token, so any corpus
    can be scored without an external vector file. Each such vector is
    drawn once, then kept."""

    vectors: dict[str, np.ndarray] = field(default_factory=dict)
    dim: int = 32
    seed: int = 0
    _drawn: dict[str, np.ndarray] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise LabelError("embedding dimension must be >= 1")

    def vector(self, token: str) -> np.ndarray:
        vec = self.vectors.get(token, self._drawn.get(token))
        if vec is None:
            salt = str(self.seed).encode()
            if len(salt) > 16:  # blake2b's limit; a digest keeps every digit
                salt = hashlib.blake2b(salt, digest_size=16).digest()
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, salt=salt).digest()
            rng = np.random.default_rng(int.from_bytes(digest, "little"))
            vec = self._drawn[token] = rng.standard_normal(self.dim)
            vec.flags.writeable = False  # every caller shares it
        return vec


def load_embeddings(path: str, seed: int = 0) -> EmbeddingTable:
    """Read the plain-text word-vector format: a "count dim" header line,
    then one "token v1 ... vd" line per token, each value finite and each
    token listed once. Any whitespace separates fields, so the trailing
    space the original word2vec tool writes after each value is read too."""
    lines = read_lines(path, LabelError)
    header = next(lines, (1, ""))[1].split()
    try:
        count, dim = (int(x) for x in header)
    except ValueError:
        raise LabelError(f"{path}:1: expected 'count dim' header line") from None
    if dim < 1:
        raise LabelError(f"{path}:1: embedding dimension must be >= 1")
    vectors: dict[str, np.ndarray] = {}
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != dim + 1:
            raise LabelError(f"{path}:{lineno}: expected token plus {dim} values")
        token, values = parts[0], parts[1:]
        if token in vectors:
            raise LabelError(f"{path}:{lineno}: token {token!r} listed twice")
        try:
            vec = np.array([float(x) for x in values])
        except ValueError as exc:
            raise LabelError(f"{path}:{lineno}: {exc}") from None
        if not np.isfinite(vec).all():
            raise LabelError(f"{path}:{lineno}: non-finite value")
        vectors[token] = vec
    if len(vectors) != count:
        raise LabelError(f"{path}: header declared {count} vectors, found {len(vectors)}")
    return EmbeddingTable(vectors, dim, seed)


@dataclass(frozen=True)
class ClueTokenSet:
    """Normalized reference tokens absent from the incomplete utterance."""

    tokens: frozenset[str]
    surface_forms: dict[str, tuple[str, ...]]

    def ordered(self) -> tuple[str, ...]:
        return tuple(sorted(self.tokens))


@dataclass(frozen=True)
class PickerLabels:
    """One row per context utterance, one value per word: BIO tags when the
    mode is hard, scores in [0,1] when soft. tags and scores are read-only
    views, the rows in their own mode and None in the other."""

    mode: str
    rows: tuple[tuple, ...]

    def __post_init__(self):
        if self.mode not in LABEL_MODES:
            raise LabelError(f"unknown label mode {self.mode!r}")
        if self.mode == "soft":
            for row in self.rows:
                try:
                    if any(not 0.0 <= s <= 1.0 for s in row):
                        raise LabelError("soft scores must lie in [0,1]")
                except TypeError:  # a value that is not a number
                    raise LabelError("soft scores must lie in [0,1]") from None
        else:
            for row in self.rows:
                prev = "O"
                for tag in row:
                    if tag not in BIO_TAGS:
                        raise LabelError(f"unknown BIO tag {tag!r}")
                    if tag == "I" and prev == "O":
                        raise LabelError("I tag must follow B or I")
                    prev = tag

    @property
    def tags(self) -> tuple[tuple[str, ...], ...] | None:
        return self.rows if self.mode == "hard" else None

    @property
    def scores(self) -> tuple[tuple[float, ...], ...] | None:
        return self.rows if self.mode == "soft" else None

    def marked(self) -> tuple[tuple[bool, ...], ...]:
        """Per context word, whether it is marked important: a tag other
        than O, or a score above 0.5."""
        if self.mode == "hard":
            return tuple(tuple(tag != "O" for tag in row) for row in self.rows)
        return tuple(tuple(score > 0.5 for score in row) for row in self.rows)


@dataclass(frozen=True)
class LabeledSample:
    sample: DialogueSample
    labels: PickerLabels


def normalize(tokens: list[str], cfg: LanguageConfig) -> list[tuple[int, str]]:
    """Drop stopwords, then lowercase survivors and, where the language
    stems, lemmatize and stem them, keeping each survivor's original
    index."""
    stems, stopwords = cfg.stems, cfg.stopwords  # memo keys that hash in C
    return [(i, form) for i, token in enumerate(tokens)
            if (form := _normal_form(token, stems, stopwords))]


@lru_cache(maxsize=1 << 16)
def _normal_form(token: str, stems: bool, stopwords: frozenset[str]) -> str:
    """token's normalized form; empty for a stopword."""
    form = token.lower()
    if token in stopwords or form in stopwords:
        return ""
    if stems:
        form = textnorm.porter_stem(textnorm.lemmatize(form))
    return form


def extract_clue_tokens(
    reference: str, incomplete: str, cfg: LanguageConfig
) -> ClueTokenSet:
    """Normalized reference tokens that the incomplete utterance lacks."""
    inc_set = {form for _, form in normalize(tokenize(incomplete, cfg), cfg)}
    ref_tokens = tokenize(reference, cfg)
    provenance: dict[str, tuple[str, ...]] = {}
    for idx, form in normalize(ref_tokens, cfg):
        if form not in inc_set:
            surfaces = provenance.get(form, ())
            if ref_tokens[idx] not in surfaces:
                provenance[form] = surfaces + (ref_tokens[idx],)
    return ClueTokenSet(frozenset(provenance), provenance)


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
    h_vecs = [emb.vector(word) for word in context_words] if ordered else []
    h_norms = [float(np.linalg.norm(vec)) for vec in h_vecs]  # once per matrix
    for j, clue in enumerate(ordered):
        c_vec = emb.vector(clue)
        nc = float(np.linalg.norm(c_vec))
        for i, word in enumerate(context_words):
            if word == clue:
                d[i, j] = 1.0
            elif h_norms[i] != 0.0 and nc != 0.0:  # a zero vector scores 0
                d[i, j] = min(np.dot(h_vecs[i], c_vec) / (h_norms[i] * nc), _BELOW_ONE)
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
    rows: list[tuple] = []
    for utterance in sample.context:
        words = tokenize(utterance, cfg)
        surviving = normalize(words, cfg)
        if mode == "soft":
            d = score_matrix([form for _, form in surviving], clues, emb)
            scores = np.zeros(len(words))
            for (surface_idx, _), value in zip(surviving, soft_labels(d)):
                scores[surface_idx] = value
            rows.append(tuple(float(s) for s in scores))
        else:
            bits = [0] * len(words)
            for surface_idx, form in surviving:
                bits[surface_idx] = int(form in clues.tokens)
            rows.append(tuple(to_bio(bits)))
    return LabeledSample(sample, PickerLabels(mode, tuple(rows)))


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
    mode, rows = labeled.labels.mode, labeled.labels.rows
    key = "scores" if mode == "soft" else "tags"
    record["labels"] = {"mode": mode, key: [list(row) for row in rows]}
    return record


def save_labeled_corpus(labeled: list[LabeledSample], path: str) -> None:
    write_jsonl(map(labeled_to_record, labeled), path)


def load_labeled_corpus(path: str, cfg: LanguageConfig) -> list[LabeledSample]:
    out: list[LabeledSample] = []
    for where, record in read_jsonl(path, LabelError):
        if "labels" not in record:
            raise LabelError(f"{where}: missing 'labels' field")
        raw = record.pop("labels")
        sample = _parse_record(record, where, len(out))
        labels = _parse_labels(raw, where)
        if out and labels.mode != out[0].labels.mode:
            raise LabelError(f"{where}: {labels.mode} labels after {out[0].labels.mode} ones")
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
    key, cast = ("scores", float) if mode == "soft" else ("tags", str)
    try:
        return PickerLabels(mode, tuple(tuple(cast(v) for v in row) for row in raw[key]))
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers LabelError
        raise LabelError(f"{where}: bad labels ({exc})") from exc


def alignment_problem(
    sample: DialogueSample, labels: PickerLabels, cfg: LanguageConfig
) -> str | None:
    """Why the label rows do not match the sample's context utterances word
    for word, or None when they do."""
    rows = labels.rows
    if len(rows) != len(sample.context):
        return f"{len(rows)} label rows for {len(sample.context)} context utterances"
    for k, (utterance, row) in enumerate(zip(sample.context, rows)):
        words = len(tokenize(utterance, cfg))
        if words != len(row):
            return f"utterance {k} has {words} words but {len(row)} labels"
    return None


def marked_word_counts(labeled: list[LabeledSample]) -> tuple[int, int]:
    """How many context words the labels mark important
    (PickerLabels.marked), and how many context words there are."""
    rows = [row for item in labeled for row in item.labels.marked()]
    return sum(map(sum, rows)), sum(map(len, rows))


def important_token_set(labeled: LabeledSample, cfg: LanguageConfig) -> frozenset[str]:
    """Normalized forms of the context words the labels mark
    (PickerLabels.marked); used by the pickup-ratio metric."""
    forms: set[str] = set()
    for utterance, row in zip(labeled.sample.context, labeled.labels.marked()):
        for word, hit in zip(tokenize(utterance, cfg), row):
            if hit:
                forms.update(form for _, form in normalize([word], cfg))
    return frozenset(forms)
