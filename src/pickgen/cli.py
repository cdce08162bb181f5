"""Config-driven command line: synth, label, train, restore, evaluate.

Exit codes: 0 success, 1 usage error, 2 runtime error. Every command
writes its artifacts under --out-dir and, once it succeeds, records there
the settings it read, for provenance. A JSON config file provides
defaults; command-line flags override individual keys.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import __version__
from .corpus import (
    CorpusError,
    LanguageConfig,
    Vocabulary,
    atomic_write,
    build_vocab,
    load_corpus,
    read_jsonl,
    save_corpus,
)
from .decoding import (
    DEFAULT_BEAM_SIZE,
    check_search_settings,
    default_max_decode_len,
    load_predictions,
    restore_ranked,
    save_predictions,
)
from .encoding import DEFAULT_MAX_LEN, check_max_len
from .labeling import (
    LABEL_MODES,
    EmbeddingTable,
    label_corpus,
    load_embeddings,
    load_labeled_corpus,
    marked_word_counts,
    save_labeled_corpus,
)
from .metrics import PICKUP_MODES, evaluate
from .model import ModelConfig, load_checkpoint
from .synth import generate_corpus
from .training import TrainConfig, make_model_config, train

# Model and training defaults are the typed configs' own, minus the fields
# a run fills in from its corpus, vocabulary, label mode and seed.
DEFAULT_CONFIG: dict = {
    "language": "english",
    "stopword_path": None,
    "seed": 0,
    "vocab_size": 2000,
    "max_input_len": DEFAULT_MAX_LEN,
    "embeddings": None,
    "label_mode": "hard",
    "model": {
        **{f.name: f.default for f in fields(ModelConfig)
           if f.name not in ("vocab_size", "picker_widths", "picker_arity", "seed")},
        "picker_hidden": list(ModelConfig.picker_widths[:-1]),
    },
    "train": {
        **{f.name: f.default for f in fields(TrainConfig)
           if f.name not in ("seed", "label_mode", "max_len")},
        "epochs": None,  # None: chosen from the corpus size
    },
    "inference": {
        "beam_size": DEFAULT_BEAM_SIZE,
        "max_len": None,
        "length_penalty": 1.0,
        "nbest": 1,
    },
    "evaluation": {
        "pickup_mode": "any",
    },
}
# The type of each setting whose default is null, and the values a setting
# with a fixed set of them may take (argparse's choices read them too).
NULLABLE = {"stopword_path": str, "embeddings": str, "train.epochs": int,
            "inference.max_len": int}
CHOICES = {
    "language": ("english", "chinese", "other"),
    "label_mode": LABEL_MODES,
    "evaluation.pickup_mode": PICKUP_MODES,
}

# Corpora below this size (and any subsampled run) default to the
# small-corpus epoch count.
SMALL_CORPUS_EPOCHS = 20
LARGE_CORPUS_EPOCHS = 6
LARGE_CORPUS_THRESHOLD = 5000


class UsageError(ValueError):
    """Command-line misuse detected after argument parsing."""


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _fits(value, kind: type) -> bool:
    """Whether a JSON value has a setting's type: an int is also a float, no
    setting takes a bool, and a list holds ints."""
    if kind is list:
        return isinstance(value, list) and all(_fits(item, int) for item in value)
    return (isinstance(value, (int, float) if kind is float else kind)
            and not isinstance(value, bool))


def _overlay(config: dict, user, defaults: dict, where: str = "") -> None:
    """Write user's values over config in place. A key that defaults lacks,
    a section that is not an object, and a value of another type than its
    setting's or outside its CHOICES are usage errors naming the key."""
    if not isinstance(user, dict):
        raise UsageError(f"{where[:-1] or 'config'} must be a JSON object")
    unknown = sorted(where + key for key in user if key not in defaults)
    if unknown:
        raise UsageError(f"unknown config keys {unknown}")
    for key, value in user.items():
        dotted, default = where + key, defaults[key]
        if isinstance(default, dict):
            _overlay(config[key], value, default, dotted + ".")
            continue
        kind = NULLABLE.get(dotted, type(default))
        if not (value is None and dotted in NULLABLE or _fits(value, kind)):
            raise UsageError(f"{dotted} must be of type {kind.__name__}, "
                             f"not {json.dumps(value)}")
        if dotted in CHOICES and value not in CHOICES[dotted]:
            raise UsageError(f"{dotted} must be one of {list(CHOICES[dotted])}, "
                             f"not {json.dumps(value)}")
        config[key] = value


def load_config(args) -> dict:
    """DEFAULT_CONFIG, overlaid with the --config file, then with every flag
    that was given; a setting flag's dest is its dotted config key. Every
    setting is checked, and the command gets the top-level ones it reads
    (args.reads) only."""
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            try:
                user = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise UsageError(f"{args.config}: invalid JSON ({exc})") from None
        _overlay(config, user, DEFAULT_CONFIG)
    for dotted, value in vars(args).items():
        if value is not None and dotted.split(".")[0] in DEFAULT_CONFIG:
            for key in reversed(dotted.split(".")):
                value = {key: value}
            _overlay(config, value, DEFAULT_CONFIG)
    if config["seed"] < 0:  # numpy seeds its generators from it
        raise UsageError(f"seed must be >= 0, not {config['seed']}")
    return {key: config[key] for key in args.reads}


def _checked(where: str, check, *args, **kwargs):
    """check(*args, **kwargs); the ValueError it raises for a bad setting
    becomes a usage error, prefixed by where (its key or section)."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(f"{where}{exc}") from exc


def _language_config(config: dict) -> LanguageConfig:
    return LanguageConfig.for_language(
        config["language"], stopword_path=config.get("stopword_path")
    )


def _write_effective_config(config: dict, command: str, out_dir: str) -> None:
    payload = dict(config)
    payload["command"] = command
    path = os.path.join(out_dir, f"effective-config.{command}.json")
    with atomic_write(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read_corpus(path: str, lang: LanguageConfig) -> tuple[list, list | None]:
    """A corpus file's samples, and its labeled samples if its first record
    carries labels (else None)."""
    _, first = next(read_jsonl(path, CorpusError), ("", {}))
    if "labels" not in first:
        return load_corpus(path), None
    labeled = load_labeled_corpus(path, lang)
    return [item.sample for item in labeled], labeled


def _embedding_table(config: dict) -> EmbeddingTable:
    if config["embeddings"] is not None:
        return load_embeddings(config["embeddings"], seed=config["seed"])
    return EmbeddingTable(seed=config["seed"])


# ---------------------------------------------------------------------------
# Commands

def cmd_synth(args, config: dict) -> None:
    # a bad --size is refused before the out dir is made
    samples = _checked("--", generate_corpus, args.size, config["seed"])
    out_path = os.path.join(args.out_dir, "corpus.jsonl")
    save_corpus(samples, out_path)
    print(f"wrote {len(samples)} samples to {out_path}")


def cmd_label(args, config: dict) -> None:
    lang = _language_config(config)
    labeled = label_corpus(load_corpus(args.corpus), config["label_mode"],
                           _embedding_table(config), lang)
    out_path = os.path.join(args.out_dir, "labeled.jsonl")
    save_labeled_corpus(labeled, out_path)
    marked, total = marked_word_counts(labeled)
    print(f"wrote {len(labeled)} labeled samples to {out_path}")
    print(f"label density: {marked / total:.4f} "
          f"({marked}/{total} context words marked)")


def cmd_train(args, config: dict) -> None:
    lang = _language_config(config)
    samples, labeled = _read_corpus(args.corpus, lang)
    if labeled:  # the input decides the label mode; a plain corpus has none
        config["label_mode"] = labeled[0].labels.mode
    label_mode = config.get("label_mode", "none")
    section = config["train"]
    if section["epochs"] is None:
        section["epochs"] = (
            SMALL_CORPUS_EPOCHS
            if len(samples) < LARGE_CORPUS_THRESHOLD
            or section["subsample_fraction"] < 1.0
            else LARGE_CORPUS_EPOCHS
        )
    vocab = _checked("vocab_size: ", build_vocab, samples,
                     config["vocab_size"], lang)
    _checked("max_input_len: ", check_max_len, config["max_input_len"])
    train_cfg = _checked("train.", TrainConfig, label_mode=label_mode,
                         seed=config["seed"], max_len=config["max_input_len"],
                         **section)
    model_cfg = _checked("model.", make_model_config, len(vocab), label_mode,
                         seed=config["seed"], **config["model"])
    result = train(
        labeled or samples,
        train_cfg,
        model_cfg,
        vocab,
        lang,
        out_dir=args.out_dir,
    )
    losses = result.state.epoch_losses
    print(
        f"trained on {result.trained_samples} of {len(samples)} samples "
        f"for {train_cfg.epochs} epochs ({result.state.step} steps)"
    )
    print(
        "final epoch losses: picker "
        f"{losses['picker']:.4f}, generator {losses['generator']:.4f}, "
        f"joint {losses['joint']:.4f}"
    )
    if result.state.skipped_steps:
        print(f"warning: skipped {result.state.skipped_steps} non-finite steps")
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"loss log: {result.log_path}")


def cmd_restore(args, config: dict) -> None:
    lang = _language_config(config)
    samples = load_corpus(args.corpus)
    seen: set[str] = set()
    for sample in samples:
        if sample.id in seen:
            raise UsageError(f"duplicate sample id {sample.id!r} in {args.corpus}")
        seen.add(sample.id)
    params, manifest = load_checkpoint(args.checkpoint)
    vocab_path = args.vocab or os.path.join(
        os.path.dirname(os.path.abspath(args.checkpoint)), "vocab.json"
    )
    vocab = Vocabulary.load(vocab_path)
    recorded = manifest.get("vocab_sha256")
    if recorded is not None and recorded != vocab.sha256():
        raise UsageError(
            f"vocabulary {vocab_path} does not match the one the checkpoint "
            f"was trained with"
        )
    trained_on = manifest.get("language")
    if (trained_on is not None
            and LanguageConfig(trained_on).by_character != lang.by_character):
        raise UsageError(
            f"the checkpoint was trained on {trained_on!r} text, which "
            f"tokenizes differently from {lang.language!r}"
        )
    inference = config["inference"]
    if inference["max_len"] is None:
        inference["max_len"] = default_max_decode_len(samples, lang)
    _checked("max_input_len: ", check_max_len, config["max_input_len"])
    _checked("inference.", check_search_settings, inference["beam_size"],
             inference["max_len"], inference["length_penalty"], inference["nbest"])
    out_path = os.path.join(args.out_dir, "predictions.jsonl")
    nbest = inference["nbest"]
    ranked = restore_ranked(
        samples, params, vocab, lang, inference["beam_size"], inference["max_len"],
        inference["length_penalty"], config["max_input_len"], nbest,
    )
    rows = [
        (sample.id, best[0][0], best) if nbest > 1 else (sample.id, best[0][0])
        for sample, best in zip(samples, ranked)
    ]
    save_predictions(rows, out_path)
    print(f"wrote {len(samples)} predictions to {out_path}")


def cmd_evaluate(args, config: dict) -> None:
    lang = _language_config(config)
    predictions = load_predictions(args.predictions)
    gold, labeled = _read_corpus(args.gold, lang)
    report = evaluate(
        predictions,
        gold,
        lang,
        labeled=labeled,
        pickup_mode=config["evaluation"]["pickup_mode"],
    )
    with atomic_write(os.path.join(args.out_dir, "report.json")) as fh:
        fh.write(report.to_json())
    table = report.to_table()
    with atomic_write(os.path.join(args.out_dir, "report.txt")) as fh:
        fh.write(table)
    print(table, end="")


# ---------------------------------------------------------------------------
# Parser

def _add_common(parser, *reads: str) -> None:
    """--config and --out-dir. reads names the top-level settings the
    command reads, the only ones load_config gives it; --seed, --language
    and --stopwords are added for those among them."""
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out-dir", required=True, help="artifact directory")
    parser.set_defaults(reads=reads)
    if "seed" in reads:
        parser.add_argument("--seed", type=int, help="global seed override")
    if "language" in reads:
        parser.add_argument("--language", choices=CHOICES["language"])
    if "stopword_path" in reads:
        parser.add_argument("--stopwords", dest="stopword_path",
                            help="stopword file override")


def build_parser() -> argparse.ArgumentParser:
    """A flag that sets a config key has that dotted key as its dest."""
    parser = _Parser(prog="pickgen", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    _add_common(p, "seed")
    p.add_argument("--size", type=int, default=200)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("label", help="create picker labels from references")
    _add_common(p, "seed", "language", "stopword_path", "embeddings", "label_mode")
    p.add_argument("--in", dest="corpus", required=True, help="corpus JSONL")
    p.add_argument("--mode", dest="label_mode", choices=LABEL_MODES)
    p.add_argument("--embeddings", help="word-vector text file")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="joint picker/generator training")
    _add_common(p, "seed", "language", "vocab_size", "max_input_len", "model", "train")
    p.add_argument("--in", dest="corpus", required=True, help="labeled or plain JSONL")
    p.add_argument("--alpha", dest="train.picker_weight", type=float,
                   help="picker loss weight")
    p.add_argument("--learning-rate", dest="train.learning_rate", type=float)
    p.add_argument("--batch-size", dest="train.batch_size", type=int)
    p.add_argument("--epochs", dest="train.epochs", type=int)
    p.add_argument("--fraction", dest="train.subsample_fraction", type=float,
                   help="training subsample fraction")
    p.add_argument("--vocab-size", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("restore", help="decode restorations for a corpus")
    _add_common(p, "language", "max_input_len", "inference")
    p.add_argument("--in", dest="corpus", required=True, help="corpus JSONL")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", help="vocabulary JSON (default: beside checkpoint)")
    p.add_argument("--beam-size", dest="inference.beam_size", type=int)
    p.add_argument("--max-len", dest="inference.max_len", type=int)
    p.add_argument("--length-penalty", dest="inference.length_penalty", type=float)
    p.add_argument("--nbest", dest="inference.nbest", type=int)
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    _add_common(p, "language", "stopword_path", "evaluation")
    p.add_argument("--predictions", required=True, help="predictions JSONL")
    p.add_argument("--gold", required=True, help="gold corpus JSONL")
    p.add_argument("--pickup-mode", dest="evaluation.pickup_mode",
                   choices=CHOICES["evaluation.pickup_mode"])
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help (code 0) and usage errors (our code 1)
        return int(exc.code or 0)
    try:
        config = load_config(args)
        args.func(args, config)
        _write_effective_config(config, args.command, args.out_dir)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
