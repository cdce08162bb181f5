"""Config-driven command line: synth, label, train, restore, evaluate.

Exit codes: 0 success, 1 usage error, 2 runtime error. Every command
writes its artifacts under --out-dir and echoes the effective
configuration there for provenance. A JSON config file provides defaults;
command-line flags override individual keys.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import fields

from . import __version__
from .corpus import (
    CorpusError,
    LanguageConfig,
    Vocabulary,
    build_vocab,
    load_corpus,
    read_jsonl,
    save_corpus,
    tokenize,
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
    LabelError,
    label_corpus,
    label_density,
    load_embeddings,
    load_labeled_corpus,
    save_labeled_corpus,
)
from .metrics import check_bleu_order, evaluate
from .model import ModelConfig, check_positions, load_checkpoint
from .synth import generate_corpus
from .training import TrainConfig, TrainingError, make_model_config, train

# Model and training defaults are the typed configs' own, minus the fields
# a run fills in from its corpus, vocabulary, label mode and seed.
DEFAULT_CONFIG: dict = {
    "language": "english",
    "stopword_path": None,
    "seed": 0,
    "vocab_size": 2000,
    "max_input_len": DEFAULT_MAX_LEN,
    "embeddings": None,
    "embedding_fallback": "hash",
    "label_mode": "hard",
    "model": {
        **{f.name: f.default for f in fields(ModelConfig)
           if f.name not in ("vocab_size", "picker_widths", "picker_arity", "seed")},
        "picker_hidden": list(ModelConfig.picker_widths[:-1]),
    },
    "train": {
        **{f.name: f.default for f in fields(TrainConfig)
           if f.name not in ("adam_eps", "seed", "label_mode", "max_len")},
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
        "bucket_bleu_n": 2,
    },
}
# The type of each setting whose default is null, and the values a setting
# with a fixed set of them may take (argparse's choices read them too).
NULLABLE = {"stopword_path": str, "embeddings": str, "train.epochs": int,
            "inference.max_len": int}
CHOICES = {
    "language": ("english", "chinese", "other"),
    "embedding_fallback": ("hash", "zero"),
    "label_mode": (*LABEL_MODES, "none"),
    "evaluation.pickup_mode": ("any", "all"),
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
    """Whether a JSON value has a setting's type: an int is also a float, a
    bool is never a number, and a list holds ints."""
    if kind is list:
        return isinstance(value, list) and all(_fits(item, int) for item in value)
    return isinstance(value, (int, float) if kind is float else kind) and (
        kind is bool or not isinstance(value, bool))


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
    that was given; a setting flag's dest is its dotted config key."""
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            _overlay(config, json.load(fh), DEFAULT_CONFIG)
    for dotted, value in vars(args).items():
        if value is not None and dotted.split(".")[0] in DEFAULT_CONFIG:
            for key in reversed(dotted.split(".")):
                value = {key: value}
            _overlay(config, value, DEFAULT_CONFIG)
    if config["seed"] < 0:  # numpy seeds its generators from it
        raise UsageError(f"seed must be >= 0, not {config['seed']}")
    return config


def _checked(where: str, check, *args, **kwargs):
    """check(*args, **kwargs); the ValueError it raises for a bad setting
    becomes a usage error, prefixed by where (its key or section)."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(f"{where}{exc}") from exc


def _language_config(config: dict) -> LanguageConfig:
    return LanguageConfig.for_language(
        config["language"], stopword_path=config["stopword_path"]
    )


def _write_effective_config(config: dict, command: str, out_dir: str) -> None:
    payload = dict(config)
    payload["command"] = command
    path = os.path.join(out_dir, f"effective-config.{command}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _ensure_out_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)


def _sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def _require_references(samples, verb: str, error: type) -> None:
    """Raise error(...) when any sample lacks a reference."""
    missing = [s.id for s in samples if s.reference is None]
    if missing:
        raise error(f"cannot {verb}: {len(missing)} samples lack references "
                    f"(first: {missing[0]!r})")


def _embedding_table(config: dict) -> EmbeddingTable:
    if config["embeddings"] is not None:
        return load_embeddings(
            config["embeddings"],
            fallback=config["embedding_fallback"],
            seed=config["seed"],
        )
    return EmbeddingTable(fallback=config["embedding_fallback"], seed=config["seed"])


# ---------------------------------------------------------------------------
# Commands

def cmd_synth(args) -> int:
    config = load_config(args)
    templates = None
    if args.templates:
        try:
            templates = tuple(int(t) for t in args.templates.split(","))
        except ValueError:
            raise UsageError(f"--templates must be comma-separated integers, "
                             f"not {args.templates!r}") from None
    # a bad --size or --templates is refused before the out dir is made
    samples = _checked("--", generate_corpus, args.size, config["seed"], templates)
    _ensure_out_dir(args.out_dir)
    out_path = os.path.join(args.out_dir, "corpus.jsonl")
    save_corpus(samples, out_path)
    _write_effective_config(config, "synth", args.out_dir)
    print(f"wrote {len(samples)} samples to {out_path}")
    return 0


def cmd_label(args) -> int:
    config = load_config(args)
    lang = _language_config(config)
    mode = config["label_mode"]
    if mode not in LABEL_MODES:
        raise UsageError(f"label_mode {mode!r}: label writes "
                         f"{' or '.join(LABEL_MODES)} labels")
    if mode == "soft" and config["embeddings"] is None \
            and config["embedding_fallback"] == "zero":
        raise UsageError("embedding_fallback: soft labeling needs an "
                         "embeddings file or the hash fallback")
    samples = load_corpus(args.corpus)
    _require_references(samples, "label", LabelError)
    emb = _embedding_table(config)
    labeled = label_corpus(samples, mode, emb, lang)
    _ensure_out_dir(args.out_dir)
    out_path = os.path.join(args.out_dir, "labeled.jsonl")
    save_labeled_corpus(labeled, out_path)
    _write_effective_config(config, "label", args.out_dir)
    density = label_density(labeled)
    total = sum(
        len(row)
        for item in labeled
        for row in (item.labels.tags or item.labels.scores)
    )
    print(f"wrote {len(labeled)} labeled samples to {out_path}")
    print(
        f"label density: {density:.4f} "
        f"({round(density * total)}/{total} context words marked)"
    )
    return 0


def cmd_train(args) -> int:
    config = load_config(args)
    lang = _language_config(config)
    label_mode = config["label_mode"]
    if label_mode == "none":
        corpus = load_corpus(args.corpus)
    else:
        corpus = load_labeled_corpus(args.corpus, lang)
    section = config["train"]
    if section["epochs"] is None:
        section["epochs"] = (
            SMALL_CORPUS_EPOCHS
            if len(corpus) < LARGE_CORPUS_THRESHOLD
            or section["subsample_fraction"] < 1.0
            else LARGE_CORPUS_EPOCHS
        )
    raw_samples = [
        item.sample if hasattr(item, "sample") else item for item in corpus
    ]
    _require_references(raw_samples, "train", TrainingError)
    vocab = _checked("vocab_size: ", build_vocab, raw_samples,
                     config["vocab_size"], lang)
    _checked("max_input_len: ", check_max_len, config["max_input_len"])
    train_cfg = _checked("train.", TrainConfig, label_mode=label_mode,
                         seed=config["seed"], max_len=config["max_input_len"],
                         **section)
    model_cfg = _checked("model.", make_model_config, len(vocab), label_mode,
                         seed=config["seed"], **config["model"])
    # the decoder reads <s> and the reference
    longest = max((len(tokenize(s.reference, lang)) + 1 for s in raw_samples
                   if s.reference is not None), default=0)
    _checked("model.", check_positions, model_cfg,
             max(config["max_input_len"], longest))
    _ensure_out_dir(args.out_dir)
    vocab_path = os.path.join(args.out_dir, "vocab.json")
    vocab.save(vocab_path)
    vocab_sha = _sha256_of(vocab_path)
    _write_effective_config(config, "train", args.out_dir)
    result = train(
        corpus,
        train_cfg,
        model_cfg,
        vocab,
        lang,
        out_dir=args.out_dir,
        vocab_sha256=vocab_sha,
    )
    losses = result.state.epoch_losses
    print(
        f"trained on {result.trained_samples} of {len(corpus)} samples "
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
    return 0


def cmd_restore(args) -> int:
    config = load_config(args)
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
    if recorded is not None and recorded != _sha256_of(vocab_path):
        raise UsageError(
            f"vocabulary {vocab_path} does not match the one the checkpoint "
            f"was trained with"
        )
    inference = config["inference"]
    if inference["max_len"] is None:
        inference["max_len"] = default_max_decode_len(samples, lang)
    _checked("max_input_len: ", check_max_len, config["max_input_len"])
    _checked("inference.", check_search_settings, inference["beam_size"],
             inference["max_len"], inference["length_penalty"], inference["nbest"])
    _checked("model.", check_positions, params.config,
             max(config["max_input_len"], inference["max_len"]))
    _ensure_out_dir(args.out_dir)
    _write_effective_config(config, "restore", args.out_dir)
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
    return 0


def cmd_evaluate(args) -> int:
    config = load_config(args)
    lang = _language_config(config)
    _checked("evaluation.bucket_bleu_n: ", check_bleu_order,
             config["evaluation"]["bucket_bleu_n"])
    predictions = load_predictions(args.predictions)
    _, first = next(read_jsonl(args.gold, CorpusError), ("", {}))
    if "labels" in first:
        labeled = load_labeled_corpus(args.gold, lang)
        gold = [item.sample for item in labeled]
    else:
        labeled, gold = None, load_corpus(args.gold)
    report = evaluate(
        predictions,
        gold,
        lang,
        labeled=labeled,
        pickup_mode=config["evaluation"]["pickup_mode"],
        bucket_bleu_n=config["evaluation"]["bucket_bleu_n"],
    )
    _ensure_out_dir(args.out_dir)
    _write_effective_config(config, "evaluate", args.out_dir)
    json_path = os.path.join(args.out_dir, "report.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    table = report.to_table()
    table_path = os.path.join(args.out_dir, "report.txt")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write(table)
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------
# Parser

def _add_common(parser, language: bool = True) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out-dir", required=True, help="artifact directory")
    parser.add_argument("--seed", type=int, help="global seed override")
    if language:  # synth generates English and reads no stopwords
        parser.add_argument("--language", choices=CHOICES["language"])
        parser.add_argument("--stopwords", dest="stopword_path",
                            help="stopword file override")


def build_parser() -> argparse.ArgumentParser:
    """A flag that sets a config key has that dotted key as its dest."""
    parser = _Parser(prog="pickgen", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    _add_common(p, language=False)
    p.add_argument("--size", type=int, default=200)
    p.add_argument("--templates", help="comma-separated template indices")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("label", help="create picker labels from references")
    _add_common(p)
    p.add_argument("--in", dest="corpus", required=True, help="corpus JSONL")
    p.add_argument("--mode", dest="label_mode", choices=LABEL_MODES)
    p.add_argument("--embeddings", help="word-vector text file")
    p.add_argument("--embedding-fallback", choices=CHOICES["embedding_fallback"])
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="joint picker/generator training")
    _add_common(p)
    p.add_argument("--in", dest="corpus", required=True, help="labeled JSONL")
    p.add_argument("--label-mode", choices=CHOICES["label_mode"])
    p.add_argument("--alpha", dest="train.picker_weight", type=float,
                   help="picker loss weight")
    p.add_argument("--learning-rate", dest="train.learning_rate", type=float)
    p.add_argument("--batch-size", dest="train.batch_size", type=int)
    p.add_argument("--epochs", dest="train.epochs", type=int)
    p.add_argument("--fraction", dest="train.subsample_fraction", type=float,
                   help="training subsample fraction")
    p.add_argument("--vocab-size", type=int)
    p.add_argument("--checkpoint-every", dest="train.checkpoint_every", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("restore", help="decode restorations for a corpus")
    _add_common(p)
    p.add_argument("--in", dest="corpus", required=True, help="corpus JSONL")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", help="vocabulary JSON (default: beside checkpoint)")
    p.add_argument("--beam-size", dest="inference.beam_size", type=int)
    p.add_argument("--max-len", dest="inference.max_len", type=int)
    p.add_argument("--length-penalty", dest="inference.length_penalty", type=float)
    p.add_argument("--nbest", dest="inference.nbest", type=int)
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    _add_common(p)
    p.add_argument("--predictions", required=True, help="predictions JSONL")
    p.add_argument("--gold", required=True, help="gold corpus JSONL")
    p.add_argument("--pickup-mode", dest="evaluation.pickup_mode",
                   choices=CHOICES["evaluation.pickup_mode"])
    p.add_argument("--bucket-bleu-n", dest="evaluation.bucket_bleu_n", type=int)
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
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
