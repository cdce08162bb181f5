"""Data model, corpus ingestion, tokenization, and vocabulary management
for dialogue restoration corpora.

Wire format is JSONL: one object per line with fields "context" (array of
utterance strings, oldest first), "utterance" (the incomplete utterance),
optional "reference" (the gold rewrite), and optional "id". read_jsonl and
write_jsonl read and write every JSONL file of the pipeline: this corpus,
the labeled corpus and the predictions. Every artifact of the pipeline is
written through atomic_write, so a failed write leaves the file as it was.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

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
    """A language tag and its stopwords. Chinese is tokenized per
    character, everything else on whitespace; only English words are
    lemmatized and stemmed."""

    language: str = "english"
    stopwords: frozenset[str] = field(default_factory=frozenset)

    @property
    def by_character(self) -> bool:
        return self.language == "chinese"

    @property
    def stems(self) -> bool:
        """Whether normalization lemmatizes, then stems."""
        return self.language == "english"

    @property
    def joiner(self) -> str:
        return "" if self.by_character else " "

    @staticmethod
    def for_language(language: str, stopword_path: str | None = None) -> "LanguageConfig":
        """Build the default config for a language tag."""
        if stopword_path is not None:
            stops = load_stopwords(stopword_path)
        elif language in ("english", "chinese"):
            stops = builtin_stopwords(language)
        else:
            stops = frozenset()
        return LanguageConfig(language, stops)


def load_stopwords(path: str) -> frozenset[str]:
    """Read a stopword file: one token per line, blank lines ignored; a line
    that is not UTF-8 raises CorpusError naming path and line."""
    return frozenset(tok for _, line in read_lines(path, CorpusError)
                     if (tok := line.strip()))


@lru_cache(maxsize=None)
def builtin_stopwords(language: str) -> frozenset[str]:
    """Stopword list bundled with the package ('english' or 'chinese')."""
    ref = resources.files("pickgen").joinpath(f"resources/stopwords/{language}.txt")
    with resources.as_file(ref) as path:
        return load_stopwords(path)


def tokenize(text: str, cfg: LanguageConfig) -> list[str]:
    """Split text on whitespace, then into characters in character mode;
    never yields empty tokens."""
    if cfg.by_character:
        return [ch for chunk in text.split() for ch in chunk]
    return text.split()


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

    def _serialized(self) -> bytes:
        """The bytes save writes."""
        return (json.dumps(list(self.id_to_token), ensure_ascii=False)
                + "\n").encode("utf-8")

    def sha256(self) -> str:
        """Hex digest of the bytes save writes; a checkpoint records it to
        name the vocabulary it was trained with."""
        return hashlib.sha256(self._serialized()).hexdigest()

    def save(self, path: str) -> None:
        """Persist as a JSON token list in id order."""
        with atomic_write(path, binary=True) as fh:
            fh.write(self._serialized())

    @staticmethod
    def load(path: str) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            try:  # invalid UTF-8 or JSON, a wrong layout, a repeated token
                tokens = json.load(fh)
                if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
                    raise CorpusError("vocabulary file must be a JSON list of strings")
                return Vocabulary.from_tokens(tokens)
            except ValueError as exc:
                raise CorpusError(f"{path}: {exc}") from None


@contextmanager
def atomic_write(path: str, binary: bool = False):
    """Yield a file open for writing (UTF-8 text, or bytes) in place of
    path, first creating path's directory if it is missing: the file
    replaces path when the block completes, and is removed when the block
    raises, so a failed write leaves path as it was."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"  # same directory, so os.replace is atomic
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_lines(path: str, error: type[Exception]):
    """Yield (lineno, line) for each line of a UTF-8 text file; a line that
    is not UTF-8 raises the caller's error class, naming path and line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{path}:{lineno}: not UTF-8 ({exc})") from None
            yield lineno, line


def read_jsonl(path: str, error: type[Exception]):
    """Yield (where, record) for each non-blank line of a JSONL file, where
    is "path:lineno". A line that is not UTF-8, not valid JSON or not an
    object raises the caller's error class, naming where."""
    for lineno, line in read_lines(path, error):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise error(f"{where}: invalid JSON ({exc.msg})") from exc
        if not isinstance(record, dict):
            raise error(f"{where}: record must be a JSON object")
        yield where, record


def write_jsonl(records, path: str) -> None:
    """Write each record as one JSON line with sorted keys, non-ASCII kept."""
    with atomic_write(path) as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def record_id(record: dict, index: int) -> str:
    """A JSONL record's sample id: an absent or null "id" reads as the
    record's index among its file's records, any other value as its str."""
    value = record.get("id")
    return str(index if value is None else value)


def load_corpus(path: str) -> list[DialogueSample]:
    """Read a JSONL corpus file; ids are read by record_id."""
    samples = [_parse_record(record, where, i)
               for i, (where, record) in enumerate(read_jsonl(path, CorpusError))]
    if not samples:
        raise CorpusError(f"{path}: corpus file is empty")
    return samples


def _parse_record(record: dict, where: str, index: int) -> DialogueSample:
    for fld in ("context", "utterance"):
        if fld not in record:
            raise CorpusError(f"{where}: missing field {fld!r}")
    context = record["context"]
    if not isinstance(context, list) or not all(isinstance(u, str) for u in context):
        raise CorpusError(f"{where}: 'context' must be an array of strings")
    if not context:
        raise CorpusError(f"{where}: 'context' must be non-empty")
    utterance = record["utterance"]
    if not isinstance(utterance, str) or not utterance:
        raise CorpusError(f"{where}: 'utterance' must be a non-empty string")
    reference = record.get("reference")
    if reference is not None and (not isinstance(reference, str) or not reference):
        raise CorpusError(f"{where}: 'reference' must be a non-empty string")
    try:
        return DialogueSample(tuple(context), utterance, reference,
                              record_id(record, index))
    except CorpusError as exc:
        raise CorpusError(f"{where}: {exc}") from exc


def save_corpus(samples: list[DialogueSample], path: str) -> None:
    write_jsonl(map(sample_to_record, samples), path)


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
    counts = Counter(
        token for sample in samples
        for text in (*sample.context, sample.incomplete, sample.reference)
        if text is not None for token in tokenize(text, cfg))
    for reserved in RESERVED_TOKENS:
        counts.pop(reserved, None)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    room = max_size - len(RESERVED_TOKENS)
    tokens = list(RESERVED_TOKENS) + [tok for tok, _ in ranked[:room]]
    return Vocabulary.from_tokens(tokens)


def ids_of(tokens: list[str], vocab: Vocabulary) -> list[int]:
    """Token ids with UNK fallback; length-preserving. A word of the text
    that spells a reserved token, such as "</s>", is UNK too: only the
    encoder's layout places control ids."""
    reserved = len(RESERVED_TOKENS)
    return [i if (i := vocab.id_of(t)) >= reserved else UNK_ID for t in tokens]
