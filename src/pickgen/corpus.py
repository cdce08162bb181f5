"""Data model, corpus ingestion, tokenization, and vocabulary management
for dialogue restoration corpora.

Wire format is JSONL: one object per line with fields "context" (array of
utterance strings, oldest first), "utterance" (the incomplete utterance),
optional "reference" (the gold rewrite), and optional "id".
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from . import textnorm

PAD_ID = 0
UNK_ID = 1
SOS_ID = 2
EOS_ID = 3
X1_ID = 4
X2_ID = 5

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
SOS_TOKEN = "<s>"
EOS_TOKEN = "</s>"
X1_TOKEN = "[X1]"
X2_TOKEN = "[X2]"

RESERVED_TOKENS = (
    PAD_TOKEN, UNK_TOKEN, SOS_TOKEN, EOS_TOKEN, X1_TOKEN, X2_TOKEN,
)


class CorpusError(ValueError):
    """Raised for malformed corpus files or records."""


@dataclass(frozen=True)
class DialogueSample:
    """One restoration instance: context turns, the incomplete utterance,
    and (when available) the gold rewrite."""

    context: tuple[str, ...]
    incomplete: str
    reference: str | None = None
    id: str = ""

    def __post_init__(self):
        if not self.context or any(not u.strip() for u in self.context):
            raise CorpusError(f"sample {self.id!r}: context must be non-empty strings")
        if not self.incomplete.strip():
            raise CorpusError(f"sample {self.id!r}: incomplete utterance is empty")
        if self.reference is not None and not self.reference.strip():
            raise CorpusError(f"sample {self.id!r}: reference present but empty")


@dataclass(frozen=True)
class LanguageConfig:
    """Language-dependent normalization and tokenization switches."""

    language: str = "english"
    stopwords: frozenset[str] = field(default_factory=frozenset)
    lowercase: bool = True
    lemmatize: bool = True
    stem: bool = True
    granularity: str = "whitespace"  # whitespace | character

    def __post_init__(self):
        if self.granularity not in ("whitespace", "character"):
            raise ValueError(f"unsupported tokenization granularity {self.granularity!r}")
        if self.language == "chinese" and (self.lemmatize or self.stem):
            raise ValueError("chinese configs must disable lemmatization and stemming")

    @property
    def joiner(self) -> str:
        return " " if self.granularity == "whitespace" else ""

    @staticmethod
    def for_language(language: str, stopword_path: str | None = None) -> "LanguageConfig":
        """Build the default config for a language tag."""
        if stopword_path is not None:
            stops = textnorm.load_stopwords(stopword_path)
        elif language in ("english", "chinese"):
            stops = textnorm.builtin_stopwords(language)
        else:
            stops = frozenset()
        if language == "chinese":
            return LanguageConfig(
                language=language, stopwords=stops,
                lemmatize=False, stem=False, granularity="character",
            )
        if language == "english":
            return LanguageConfig(language=language, stopwords=stops)
        return LanguageConfig(
            language=language, stopwords=stops, lemmatize=False, stem=False,
        )


def tokenize(text: str, cfg: LanguageConfig) -> list[str]:
    """Split text per the configured granularity; never yields empty tokens."""
    if cfg.granularity == "whitespace":
        return text.split()
    return [ch for chunk in text.split() for ch in chunk]


def detokenize(tokens: list[str], cfg: LanguageConfig) -> str:
    return cfg.joiner.join(tokens)


@dataclass(frozen=True)
class Vocabulary:
    """Token/id bijection with fixed reserved ids at the front."""

    id_to_token: tuple[str, ...]
    token_to_id: dict[str, int]

    def __post_init__(self):
        if tuple(self.id_to_token[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise CorpusError("vocabulary must start with the reserved tokens")
        if len(self.token_to_id) != len(self.id_to_token):
            raise CorpusError("vocabulary token list contains duplicates")

    def __len__(self) -> int:
        return len(self.id_to_token)

    @staticmethod
    def from_tokens(tokens: list[str]) -> "Vocabulary":
        return Vocabulary(tuple(tokens), {t: i for i, t in enumerate(tokens)})

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def token_of(self, idx: int) -> str:
        return self.id_to_token[idx]

    def save(self, path: str) -> None:
        """Persist as a JSON token list in id order."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(list(self.id_to_token), fh, ensure_ascii=False)
            fh.write("\n")

    @staticmethod
    def load(path: str) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            tokens = json.load(fh)
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise CorpusError(f"{path}: vocabulary file must be a JSON list of strings")
        return Vocabulary.from_tokens(tokens)


def load_corpus(path: str) -> list[DialogueSample]:
    """Read a JSONL corpus file, assigning sequential string ids when absent."""
    samples: list[DialogueSample] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            samples.append(_parse_record(record, path, lineno, default_id=len(samples)))
    if not samples:
        raise CorpusError(f"{path}: corpus file is empty")
    return samples


def _parse_record(record, path: str, lineno: int, default_id: int) -> DialogueSample:
    if not isinstance(record, dict):
        raise CorpusError(f"{path}:{lineno}: record must be a JSON object")
    for fld in ("context", "utterance"):
        if fld not in record:
            raise CorpusError(f"{path}:{lineno}: missing field {fld!r}")
    context = record["context"]
    if not isinstance(context, list) or not all(isinstance(u, str) for u in context):
        raise CorpusError(f"{path}:{lineno}: 'context' must be an array of strings")
    if not context:
        raise CorpusError(f"{path}:{lineno}: 'context' must be non-empty")
    utterance = record["utterance"]
    if not isinstance(utterance, str) or not utterance:
        raise CorpusError(f"{path}:{lineno}: 'utterance' must be a non-empty string")
    reference = record.get("reference")
    if reference is not None and (not isinstance(reference, str) or not reference):
        raise CorpusError(f"{path}:{lineno}: 'reference' must be a non-empty string")
    sample_id = record.get("id")
    if sample_id is None:
        sample_id = str(default_id)
    elif not isinstance(sample_id, str):
        sample_id = str(sample_id)
    try:
        return DialogueSample(tuple(context), utterance, reference, sample_id)
    except CorpusError as exc:
        raise CorpusError(f"{path}:{lineno}: {exc}") from exc


def save_corpus(samples: list[DialogueSample], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(json.dumps(sample_to_record(sample), ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def sample_to_record(sample: DialogueSample) -> dict:
    record = {
        "id": sample.id,
        "context": list(sample.context),
        "utterance": sample.incomplete,
    }
    if sample.reference is not None:
        record["reference"] = sample.reference
    return record


def build_vocab(
    samples: list[DialogueSample], max_size: int, cfg: LanguageConfig
) -> Vocabulary:
    """Frequency-ranked vocabulary with reserved ids fixed at the front.

    Ties break lexicographically, so the result is deterministic for a
    fixed corpus and config.
    """
    if max_size <= len(RESERVED_TOKENS):
        raise CorpusError(
            f"max_size must exceed the {len(RESERVED_TOKENS)} reserved tokens"
        )
    counts: Counter[str] = Counter()
    for sample in samples:
        for text in (*sample.context, sample.incomplete, *(
            [sample.reference] if sample.reference is not None else []
        )):
            counts.update(tokenize(text, cfg))
    for reserved in RESERVED_TOKENS:
        counts.pop(reserved, None)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    room = max_size - len(RESERVED_TOKENS)
    tokens = list(RESERVED_TOKENS) + [tok for tok, _ in ranked[:room]]
    return Vocabulary.from_tokens(tokens)


def ids_of(tokens: list[str], vocab: Vocabulary) -> list[int]:
    """Token ids with UNK fallback; length-preserving."""
    return [vocab.id_of(t) for t in tokens]
