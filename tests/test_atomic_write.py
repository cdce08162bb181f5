"""Every artifact is written through corpus.atomic_write: a write that
fails midway leaves the file's previous bytes, and no temp file."""

import os

import pytest

from pickgen import corpus
from pickgen.cli import main
from pickgen.corpus import RESERVED_TOKENS, LanguageConfig, Vocabulary, save_corpus
from pickgen.decoding import save_predictions
from pickgen.labeling import EmbeddingTable, label_corpus, save_labeled_corpus
from pickgen.synth import generate_corpus
from pickgen.training import write_loss_log

ENGLISH = LanguageConfig.for_language("english")
GOLD = generate_corpus(4, seed=0)


class FailingFile:
    """Wraps a file: its fail_at-th write lands half of its data, then
    raises OSError."""

    def __init__(self, fh, fail_at: int):
        self._fh, self._left = fh, fail_at

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._left -= 1
        if self._left == 0:
            self._fh.write(data[: len(data) // 2])
            raise OSError("disk full")
        return self._fh.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def _evaluate(tmp_path, version: int, *flags: str) -> int:
    """pickgen evaluate into tmp_path/eval; version 1 scores other
    predictions than version 0."""
    gold, preds = tmp_path / "gold.jsonl", tmp_path / "preds.jsonl"
    save_corpus(GOLD, gold)
    save_predictions([(s.id, s.incomplete if version else s.reference) for s in GOLD], preds)
    return main(["evaluate", "--gold", str(gold), "--predictions", str(preds),
                 "--out-dir", str(tmp_path / "eval"), *flags])


# artifact: (path under tmp_path, the write call that fails, writer(tmp_path,
# version)); the writers of a file of several lines fail after its first line
ARTIFACTS = {
    "corpus": ("corpus.jsonl", 3, lambda d, v: save_corpus(GOLD[v:], d / "corpus.jsonl")),
    "labeled corpus": ("labeled.jsonl", 3, lambda d, v: save_labeled_corpus(
        label_corpus(GOLD[v:], "hard", EmbeddingTable(), ENGLISH), d / "labeled.jsonl")),
    "predictions": ("predictions.jsonl", 3, lambda d, v: save_predictions(
        [(s.id, s.incomplete if v else s.reference) for s in GOLD], d / "predictions.jsonl")),
    "vocabulary": ("vocab.json", 1, lambda d, v: Vocabulary.from_tokens(
        [*RESERVED_TOKENS, *"abc"[v:]]).save(d / "vocab.json")),
    "loss log": ("loss_log.csv", 3, lambda d, v: write_loss_log(
        [(1, step, 0.5 + v, 0.25, 0.75) for step in range(3)], d / "loss_log.csv")),
    "effective config": ("eval/effective-config.evaluate.json", 3, lambda d, v: _evaluate(
        d, 0, "--pickup-mode", "all" if v else "any")),
    "report.json": ("eval/report.json", 1, _evaluate),
    "report.txt": ("eval/report.txt", 1, _evaluate),
}


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_failed_write_keeps_previous_bytes(tmp_path, monkeypatch, artifact):
    name, fail_at, write = ARTIFACTS[artifact]
    path = tmp_path / name
    write(tmp_path, 0)
    previous = path.read_bytes()

    def failing_open(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        is_temp = os.path.basename(file).startswith(path.name + ".")
        return FailingFile(fh, fail_at) if is_temp else fh

    monkeypatch.setattr(corpus, "open", failing_open, raising=False)
    try:
        failed = write(tmp_path, 1) == 2  # the CLI reports the error, exit code 2
    except OSError:
        failed = True
    monkeypatch.undo()
    assert failed
    assert path.read_bytes() == previous
    assert not [f for f in os.listdir(path.parent) if f.endswith(".tmp")]
    write(tmp_path, 1)
    assert path.read_bytes() != previous


def test_missing_directory_is_created(tmp_path):
    path = tmp_path / "new" / "run" / "vocab.json"
    Vocabulary.from_tokens(list(RESERVED_TOKENS)).save(path)
    assert os.listdir(path.parent) == ["vocab.json"]
