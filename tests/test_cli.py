"""End-to-end tests for the pickgen command line.

Commands run in-process through main(argv) for speed; one subprocess test
covers the installed console script. Exit codes: 0 success, 1 usage error,
2 runtime error.
"""

import json
import os
import subprocess
import sys

import pytest

import pickgen
from pickgen.cli import DEFAULT_CONFIG, build_parser, main
from pickgen.corpus import (
    RESERVED_TOKENS,
    LanguageConfig,
    Vocabulary,
    build_vocab,
    save_corpus,
)
from pickgen.decoding import restore_ranked
from pickgen.model import init_parameters, load_checkpoint, save_checkpoint
from pickgen.synth import generate_corpus
from pickgen.training import make_model_config

TINY_CONFIG = {
    "vocab_size": 300,
    "model": {
        "d_model": 8,
        "num_layers": 1,
        "num_heads": 2,
        "ffn_dim": 16,
        "picker_hidden": [4],
        "rel_pos_buckets": 8,
        "rel_pos_max_distance": 16,
        "dropout": 0.0,
    },
    "train": {"epochs": 2, "batch_size": 4},
    "inference": {"beam_size": 2},
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    return str(path)


def run_synth(tmp_path, size=8, seed=0, out="synth"):
    out_dir = tmp_path / out
    code = main([
        "synth", "--out-dir", str(out_dir), "--size", str(size),
        "--seed", str(seed),
    ])
    assert code == 0
    return out_dir / "corpus.jsonl"


def run_label(tmp_path, corpus, mode="hard", out="label"):
    out_dir = tmp_path / out
    code = main([
        "label", "--in", str(corpus), "--out-dir", str(out_dir),
        "--mode", mode,
    ])
    assert code == 0
    return out_dir / "labeled.jsonl"


def run_train(tmp_path, labeled, config, out="train", extra=()):
    out_dir = tmp_path / out
    code = main([
        "train", "--in", str(labeled), "--out-dir", str(out_dir),
        "--config", config, *extra,
    ])
    assert code == 0
    return out_dir


class TestParsing:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "synth" in capsys.readouterr().out

    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_flag(self, tmp_path):
        assert main(["synth", "--out-dir", str(tmp_path), "--bogus"]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_argument(self, tmp_path):
        assert main(["label", "--out-dir", str(tmp_path)]) == 1


class TestConfig:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"nonsense": 1}', encoding="utf-8")
        code = main([
            "synth", "--out-dir", str(tmp_path / "out"), "--size", "1",
            "--config", str(cfg),
        ])
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_config_must_be_object(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        code = main([
            "synth", "--out-dir", str(tmp_path / "out"), "--size", "1",
            "--config", str(cfg),
        ])
        assert code == 1

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"seed": 7}', encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main([
            "synth", "--out-dir", str(out_dir), "--size", "2",
            "--config", str(cfg), "--seed", "9",
        ])
        assert code == 0
        effective = json.loads(
            (out_dir / "effective-config.synth.json").read_text()
        )
        assert effective["seed"] == 9
        assert effective["command"] == "synth"

    def test_config_file_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"seed": 7}', encoding="utf-8")
        out_dir = tmp_path / "out"
        assert main([
            "synth", "--out-dir", str(out_dir), "--size", "2",
            "--config", str(cfg),
        ]) == 0
        effective = json.loads(
            (out_dir / "effective-config.synth.json").read_text()
        )
        assert effective["seed"] == 7

    @pytest.mark.parametrize("command,args,user,key", [
        ("restore", ["--in", "corpus.jsonl", "--checkpoint", "checkpoint.bin"],
         {"inference": {"beam": 3}}, "inference.beam"),
        ("train", ["--in", "labeled.jsonl"], {"train": {"epoch": 2}}, "train.epoch"),
    ], ids=["restore", "train"])
    def test_unknown_section_key(self, tmp_path, capsys, command, args, user, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(user), encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main([command, "--out-dir", str(out_dir), *args, "--config", str(cfg)])
        assert code == 1
        assert f"unknown config keys ['{key}']" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_section_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"inference": 3}', encoding="utf-8")
        code = main([
            "synth", "--out-dir", str(tmp_path / "out"), "--size", "1",
            "--config", str(cfg),
        ])
        assert code == 1
        assert "inference must be a JSON object" in capsys.readouterr().err


# (command, flag, value on the command line, config key, value recorded);
# "{stopwords}" and "{embeddings}" stand for files the fixture writes
SETTING_FLAGS = [
    ("synth", "--seed", "5", "seed", 5),
    *((command, flag, value, key, recorded)
      for command in ("label", "train", "restore", "evaluate")
      for flag, value, key, recorded in (
          ("--seed", "5", "seed", 5),
          ("--language", "other", "language", "other"),
          ("--stopwords", "{stopwords}", "stopword_path", "{stopwords}"),
      )),
    ("label", "--mode", "soft", "label_mode", "soft"),
    ("label", "--embeddings", "{embeddings}", "embeddings", "{embeddings}"),
    ("label", "--embedding-fallback", "zero", "embedding_fallback", "zero"),
    ("train", "--label-mode", "none", "label_mode", "none"),
    ("train", "--alpha", "0.25", "train.picker_weight", 0.25),
    ("train", "--learning-rate", "0.01", "train.learning_rate", 0.01),
    ("train", "--batch-size", "3", "train.batch_size", 3),
    ("train", "--epochs", "1", "train.epochs", 1),
    ("train", "--fraction", "0.5", "train.subsample_fraction", 0.5),
    ("train", "--vocab-size", "100", "vocab_size", 100),
    ("train", "--checkpoint-every", "1", "train.checkpoint_every", 1),
    ("restore", "--beam-size", "3", "inference.beam_size", 3),
    ("restore", "--max-len", "5", "inference.max_len", 5),
    ("restore", "--length-penalty", "0.5", "inference.length_penalty", 0.5),
    ("restore", "--nbest", "2", "inference.nbest", 2),
    ("evaluate", "--pickup-mode", "all", "evaluation.pickup_mode", "all"),
    ("evaluate", "--bucket-bleu-n", "3", "evaluation.bucket_bleu_n", 3),
]

# (command, flag, value): a setting no run can use, rejected before any file;
# the path flags --stopwords and --embeddings are in UNREADABLE_FILES
INVALID_SETTINGS = [
    *((command, flag, value)
      for command in ("label", "train", "evaluate")
      for flag, value in (("--seed", "x"), ("--language", "klingon"))),
    ("label", "--mode", "none"),
    ("label", "--embedding-fallback", "cosine"),
    ("train", "--label-mode", "bio"),
    ("train", "--alpha", "-1"),
    ("train", "--learning-rate", "-1"),
    ("train", "--batch-size", "0"),
    ("train", "--epochs", "0"),
    ("train", "--fraction", "0"),
    ("train", "--vocab-size", "3"),
    ("train", "--checkpoint-every", "-1"),
    ("restore", "--beam-size", "0"),
    ("restore", "--max-len", "0"),
    ("restore", "--max-len", "-3"),
    ("restore", "--length-penalty", "1000"),
    ("restore", "--nbest", "0"),
    ("evaluate", "--pickup-mode", "some"),
    ("evaluate", "--bucket-bleu-n", "0"),
    ("synth", "--seed", "-1"),
    ("train", "--seed", "-1"),
]
# (command, flag) of each flag that names a file to read: a file that cannot
# be read is a runtime error (exit 2), as for --in
UNREADABLE_FILES = [
    *((command, "--stopwords") for command in ("label", "train", "restore", "evaluate")),
    ("label", "--embeddings"),
]
KEY_OF = {(command, flag): key for command, flag, _, key, _ in SETTING_FLAGS}

# (command, config file, dotted key it gets wrong), each laid over
# TINY_CONFIG: a value of the wrong type, outside its choices or outside the
# range its check allows, rejected before any file
INVALID_CONFIGS = [
    ("train", {"train": {"batch_size": "3"}}, "train.batch_size"),
    ("train", {"train": {"batch_size": True}}, "train.batch_size"),
    ("train", {"model": {"literal_pe": "false"}}, "model.literal_pe"),
    ("train", {"model": {"picker_hidden": [8, "a"]}}, "model.picker_hidden"),
    ("restore", {"inference": {"max_len": 2.5}}, "inference.max_len"),
    ("restore", {"inference": {"beam_size": "3"}}, "inference.beam_size"),
    ("synth", {"seed": "x"}, "seed"),
    ("synth", {"seed": None}, "seed"),
    ("label", {"language": "klingon"}, "language"),
    ("train", {"model": {"num_heads": 0}}, "model.num_heads"),
    ("train", {"model": {"d_model": 0}}, "model.d_model"),
    ("train", {"model": {"ffn_dim": 0}}, "model.ffn_dim"),
    ("train", {"train": {"learning_rate": 0}}, "train.learning_rate"),
    ("train", {"train": {"beta1": 1.0}}, "train.beta1"),
    ("train", {"train": {"beta2": -0.5}}, "train.beta2"),
    ("train", {"train": {"weight_decay": -0.1}}, "train.weight_decay"),
    ("train", {"train": {"grad_clip": -1}}, "train.grad_clip"),
    ("train", {"train": {"checkpoint_every": -1}}, "train.checkpoint_every"),
    ("train", {"vocab_size": 6}, "vocab_size"),
    ("train", {"max_input_len": 2}, "max_input_len"),
    ("restore", {"max_input_len": 2}, "max_input_len"),
    ("evaluate", {"evaluation": {"bucket_bleu_n": 0}}, "evaluation.bucket_bleu_n"),
    ("label", {"label_mode": "none"}, "label_mode"),
    ("label", {"label_mode": "soft", "embedding_fallback": "zero"},
     "embedding_fallback"),
    ("label", {"seed": -1}, "seed"),
    ("train", {"model": {"rel_pos_max_distance": 0}}, "model.rel_pos_max_distance"),
    ("train", {"model": {"rel_pos_max_distance": 4}}, "model.rel_pos_max_distance"),
    ("train", {"model": {"picker_hidden": [0]}}, "model.picker_hidden"),
    ("train", {"model": {"literal_pe": True, "max_positions": 3}},
     "model.max_positions"),
    # inputs fit in 7 positions, but the longest <s> + reference takes 8
    ("train", {"max_input_len": 7, "model": {"literal_pe": True, "max_positions": 7}},
     "model.max_positions"),
]


def _laid_over(base: dict, user: dict) -> dict:
    return {**base, **{key: _laid_over(base[key], value)
                       if isinstance(value, dict) and key in base else value
                       for key, value in user.items()}}


# TINY_CONFIG with a literal position table just long enough for its inputs
PE_CONFIG = _laid_over(TINY_CONFIG, {
    "max_input_len": 24, "model": {"literal_pe": True, "max_positions": 24}})


class TestSettingFlags:
    """Every flag that sets a config key lands at that key in the
    command's effective config."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("inputs")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
        corpus = run_synth(tmp_path)
        labeled = run_label(tmp_path, corpus)
        train_dir = run_train(tmp_path, labeled, str(config))
        assert main([
            "restore", "--in", str(corpus), "--out-dir", str(tmp_path / "restore"),
            "--checkpoint", str(train_dir / "checkpoint.bin"), "--config", str(config),
        ]) == 0
        pe_config = tmp_path / "pe-config.json"
        pe_config.write_text(json.dumps(PE_CONFIG), encoding="utf-8")
        pe_dir = run_train(tmp_path, labeled, str(pe_config), out="train-pe")
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text("the\na\n", encoding="utf-8")
        embeddings = tmp_path / "vectors.txt"
        embeddings.write_text("1 2\ntour 0.5 -0.5\n", encoding="utf-8")
        return {
            "synth": ["--size", "2"],
            "label": ["--in", str(corpus)],
            "train": ["--in", str(labeled), "--config", str(config)],
            "restore": ["--in", str(corpus), "--config", str(config),
                        "--checkpoint", str(train_dir / "checkpoint.bin")],
            "evaluate": ["--gold", str(labeled), "--predictions",
                         str(tmp_path / "restore" / "predictions.jsonl")],
            "restore-pe": ["--in", str(corpus),
                           "--checkpoint", str(pe_dir / "checkpoint.bin")],
            "{stopwords}": str(stopwords),
            "{embeddings}": str(embeddings),
        }

    def test_every_setting_flag_is_listed(self):
        commands = next(a for a in build_parser()._actions if a.choices).choices
        declared = {
            (command, action.option_strings[0], action.dest)
            for command, parser in commands.items()
            for action in parser._actions
            if action.dest.split(".")[0] in DEFAULT_CONFIG
        }
        assert declared == {(c, flag, key) for c, flag, _, key, _ in SETTING_FLAGS}

    @pytest.mark.parametrize(
        "command,flag,value,key,recorded", SETTING_FLAGS,
        ids=[f"{c}{flag}" for c, flag, *_ in SETTING_FLAGS])
    def test_flag_lands_at_its_key(self, tmp_path, inputs, command, flag, value,
                                   key, recorded):
        out_dir = tmp_path / "out"
        code = main([command, "--out-dir", str(out_dir), *inputs[command],
                     flag, inputs.get(value, value)])
        assert code == 0
        node = json.loads(
            (out_dir / f"effective-config.{command}.json").read_text())
        for part in key.split("."):
            node = node[part]
        assert node == inputs.get(recorded, recorded)

    @pytest.mark.parametrize(
        "command,flag,value", INVALID_SETTINGS,
        ids=[f"{c}{flag}={value}" for c, flag, value in INVALID_SETTINGS])
    def test_invalid_value_is_usage_error_before_any_write(
            self, tmp_path, capsys, inputs, command, flag, value):
        out_dir = tmp_path / "out"
        code = main([command, "--out-dir", str(out_dir), *inputs[command],
                     flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert flag in err or KEY_OF[command, flag] in err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize(
        "command,user,key", INVALID_CONFIGS,
        ids=[f"{c}-{json.dumps(user)}" for c, user, _ in INVALID_CONFIGS])
    def test_invalid_config_is_usage_error_before_any_write(
            self, tmp_path, capsys, inputs, command, user, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(_laid_over(TINY_CONFIG, user)), encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main([command, "--out-dir", str(out_dir), *inputs[command],
                     "--config", str(cfg)])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("user,ok", [
        ({}, True),
        ({"max_input_len": 25}, False),
        ({"inference": {"max_len": 24}}, True),
        ({"inference": {"max_len": 25}}, False),
    ], ids=["fits", "max_input_len", "max_len-fits", "max_len"])
    def test_restore_checks_positions_of_literal_pe_before_any_write(
            self, tmp_path, capsys, inputs, user, ok):
        # the checkpoint's position table holds 24 positions
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(_laid_over(PE_CONFIG, user)), encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main(["restore", "--out-dir", str(out_dir), *inputs["restore-pe"],
                     "--config", str(cfg)])
        assert code == (0 if ok else 1)
        if not ok:
            assert "model.max_positions 24 cannot hold 25 positions" in \
                capsys.readouterr().err
            assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("command,flag", UNREADABLE_FILES)
    def test_unreadable_file_is_runtime_error_before_any_write(
            self, tmp_path, inputs, command, flag):
        out_dir = tmp_path / "out"
        code = main([command, "--out-dir", str(out_dir), *inputs[command],
                     flag, str(tmp_path / "missing.txt")])
        assert code == 2
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("command", ["synth", "label", "train", "restore",
                                         "evaluate"])
    def test_effective_config_is_accepted_back_unchanged(
            self, tmp_path, inputs, command):
        # the walk must accept every value a run records, nulls included
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([command, "--out-dir", str(first), *inputs[command]]) == 0
        name = f"effective-config.{command}.json"
        effective = json.loads((first / name).read_text())
        del effective["command"]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(effective), encoding="utf-8")
        assert main([command, "--out-dir", str(second), *inputs[command],
                     "--config", str(cfg)]) == 0
        assert (second / name).read_bytes() == (first / name).read_bytes()


class TestSynth:
    def test_writes_corpus_and_config(self, tmp_path):
        path = run_synth(tmp_path, size=5)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5
        assert (path.parent / "effective-config.synth.json").exists()

    def test_seed_deterministic_bytes(self, tmp_path):
        a = run_synth(tmp_path, seed=3, out="a")
        b = run_synth(tmp_path, seed=3, out="b")
        c = run_synth(tmp_path, seed=4, out="c")
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_template_subset(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main([
            "synth", "--out-dir", str(out_dir), "--size", "3",
            "--templates", "1",
        ]) == 0
        rows = [
            json.loads(line)
            for line in (out_dir / "corpus.jsonl").read_text().splitlines()
        ]
        assert all(r["utterance"] == "what album should i try first" for r in rows)

    def test_bad_size(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["synth", "--out-dir", str(out_dir), "--size", "0"]) == 1
        assert "--size must be >= 1, not 0" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("value,problem", [
        ("9", "--templates must be one or more indices in 0..5, not [9]"),
        ("-1", "not [-1]"),
        ("1,6", "not [1, 6]"),
        ("1,x", "--templates must be comma-separated integers, not '1,x'"),
    ], ids=["9", "-1", "1,6", "1,x"])
    def test_bad_templates(self, tmp_path, capsys, value, problem):
        out_dir = tmp_path / "out"
        assert main(["synth", "--out-dir", str(out_dir), "--templates", value]) == 1
        assert problem in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--language", "chinese"), ("--stopwords", "/nonexistent"),
    ])
    def test_language_flags_rejected(self, tmp_path, capsys, flag, value):
        # the generator writes English whatever they say
        out_dir = tmp_path / "out"
        assert main(["synth", "--out-dir", str(out_dir), flag, value]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out_dir.exists()


class TestLabel:
    def test_hard_labeling(self, tmp_path, capsys):
        corpus = run_synth(tmp_path)
        labeled = run_label(tmp_path, corpus)
        out = capsys.readouterr().out
        assert "label density" in out
        rows = [json.loads(l) for l in labeled.read_text().splitlines()]
        assert all(r["labels"]["mode"] == "hard" for r in rows)

    def test_soft_and_hard_differ(self, tmp_path):
        corpus = run_synth(tmp_path)
        hard = run_label(tmp_path, corpus, "hard", out="hard")
        soft = run_label(tmp_path, corpus, "soft", out="soft")
        assert hard.read_bytes() != soft.read_bytes()
        rows = [json.loads(l) for l in soft.read_text().splitlines()]
        assert all(r["labels"]["mode"] == "soft" for r in rows)

    def test_missing_input_file(self, tmp_path, capsys):
        code = main([
            "label", "--in", str(tmp_path / "nope.jsonl"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_references_required(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"context": ["a"], "utterance": "b"}\n', encoding="utf-8"
        )
        code = main([
            "label", "--in", str(corpus), "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "lack references" in capsys.readouterr().err

    @pytest.mark.parametrize("soft_by", ["flag", "config"])
    def test_label_mode_in_effective_config(self, tmp_path, soft_by):
        corpus = run_synth(tmp_path)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"label_mode": "soft"}), encoding="utf-8")
        extra = ["--mode", "soft"] if soft_by == "flag" else ["--config", str(cfg)]
        out_dir = tmp_path / "out"
        code = main([
            "label", "--in", str(corpus), "--out-dir", str(out_dir), *extra,
        ])
        assert code == 0
        effective = json.loads(
            (out_dir / "effective-config.label.json").read_text()
        )
        assert effective["label_mode"] == "soft"
        rows = [
            json.loads(l)
            for l in (out_dir / "labeled.jsonl").read_text().splitlines()
        ]
        assert all(r["labels"]["mode"] == "soft" for r in rows)

    def test_soft_zero_fallback_without_embeddings(self, tmp_path, capsys):
        corpus = run_synth(tmp_path)
        code = main([
            "label", "--in", str(corpus), "--out-dir", str(tmp_path / "out"),
            "--mode", "soft", "--embedding-fallback", "zero",
        ])
        assert code == 1
        assert "embedding_fallback" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestTrain:
    def test_artifacts_written(self, tmp_path, tiny_config, capsys):
        corpus = run_synth(tmp_path)
        labeled = run_label(tmp_path, corpus)
        out_dir = run_train(tmp_path, labeled, tiny_config)
        assert (out_dir / "checkpoint.bin").exists()
        assert (out_dir / "vocab.json").exists()
        assert (out_dir / "loss_log.csv").exists()
        assert (out_dir / "effective-config.train.json").exists()
        out = capsys.readouterr().out
        assert "final epoch losses" in out

    def test_epochs_default_small_corpus(self, tmp_path, capsys):
        corpus = run_synth(tmp_path, size=4)
        labeled = run_label(tmp_path, corpus)
        cfg = tmp_path / "config.json"
        section = dict(TINY_CONFIG)
        section["train"] = {"batch_size": 4}
        cfg.write_text(json.dumps(section), encoding="utf-8")
        out_dir = run_train(tmp_path, labeled, str(cfg))
        effective = json.loads(
            (out_dir / "effective-config.train.json").read_text()
        )
        assert effective["train"]["epochs"] == 20

    @pytest.mark.parametrize("bad_line,problem", [
        ("not json", "invalid JSON"),
        ("5", "record must be a JSON object"),
    ])
    def test_bad_labeled_line(self, tmp_path, tiny_config, capsys, bad_line,
                              problem):
        labeled = run_label(tmp_path, run_synth(tmp_path, size=2))
        first = labeled.read_text(encoding="utf-8").splitlines()[0]
        labeled.write_text(first + "\n" + bad_line + "\n", encoding="utf-8")
        code = main([
            "train", "--in", str(labeled), "--out-dir", str(tmp_path / "train"),
            "--config", tiny_config,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{labeled}:2: {problem}" in err

    def test_unlabeled_mode_needs_references(self, tmp_path, tiny_config, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"context": ["a"], "utterance": "b", "id": "s0"}\n',
                          encoding="utf-8")
        out_dir = tmp_path / "train"
        code = main([
            "train", "--in", str(corpus), "--out-dir", str(out_dir),
            "--config", tiny_config, "--label-mode", "none",
        ])
        assert code == 2
        assert "cannot train: 1 samples lack references (first: 's0')" \
            in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unlabeled_mode_trains_from_raw_corpus(self, tmp_path, tiny_config):
        corpus = run_synth(tmp_path)
        out_dir = run_train(
            tmp_path, corpus, tiny_config, extra=["--label-mode", "none"]
        )
        assert (out_dir / "checkpoint.bin").exists()

    @pytest.mark.parametrize("epochs", ["0", "-2"])
    def test_epochs_below_one_rejected(self, tmp_path, tiny_config, capsys,
                                       epochs):
        labeled = run_label(tmp_path, run_synth(tmp_path))
        out_dir = tmp_path / "train"
        code = main([
            "train", "--in", str(labeled), "--out-dir", str(out_dir),
            "--config", tiny_config, "--epochs", epochs,
        ])
        assert code == 1
        assert "epochs must be >= 1" in capsys.readouterr().err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("model,problem", [
        ({"d_model": 9}, "d_model 9 not divisible by num_heads 2"),
        ({"dropout": 1.5}, "dropout must lie in [0, 1)"),
    ], ids=["d_model", "dropout"])
    def test_bad_model_setting_is_a_usage_error_and_writes_nothing(
            self, tmp_path, capsys, model, problem):
        labeled = run_label(tmp_path, run_synth(tmp_path))
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "model": {**TINY_CONFIG["model"],
                                                            **model}}))
        out_dir = tmp_path / "train"
        code = main(["train", "--in", str(labeled), "--out-dir", str(out_dir),
                     "--config", str(cfg)])
        assert code == 1
        assert problem in capsys.readouterr().err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_alpha_flag_reaches_effective_config(self, tmp_path, tiny_config):
        corpus = run_synth(tmp_path)
        labeled = run_label(tmp_path, corpus)
        out_dir = run_train(
            tmp_path, labeled, tiny_config, extra=["--alpha", "0.25"]
        )
        effective = json.loads(
            (out_dir / "effective-config.train.json").read_text()
        )
        assert effective["train"]["picker_weight"] == 0.25


class TestRestoreAndEvaluate:
    @pytest.fixture
    def pipeline(self, tmp_path, tiny_config):
        corpus = run_synth(tmp_path)
        labeled = run_label(tmp_path, corpus)
        train_dir = run_train(tmp_path, labeled, tiny_config)
        return tmp_path, tiny_config, corpus, labeled, train_dir

    def test_restore_writes_predictions(self, pipeline):
        tmp_path, config, corpus, _, train_dir = pipeline
        out_dir = tmp_path / "restore"
        code = main([
            "restore", "--in", str(corpus),
            "--checkpoint", str(train_dir / "checkpoint.bin"),
            "--out-dir", str(out_dir), "--config", config,
        ])
        assert code == 0
        rows = [
            json.loads(l)
            for l in (out_dir / "predictions.jsonl").read_text().splitlines()
        ]
        assert [r["id"] for r in rows] == [str(i) for i in range(8)]

    def test_restore_nbest_records_scores(self, pipeline):
        tmp_path, config, corpus, _, train_dir = pipeline
        out_dir = tmp_path / "nbest"
        code = main([
            "restore", "--in", str(corpus),
            "--checkpoint", str(train_dir / "checkpoint.bin"),
            "--out-dir", str(out_dir), "--config", config, "--nbest", "2",
        ])
        assert code == 0
        rows = [
            json.loads(l)
            for l in (out_dir / "predictions.jsonl").read_text().splitlines()
        ]
        for row in rows:
            assert row["prediction"] == row["nbest"][0]["prediction"]
            scores = [item["score"] for item in row["nbest"]]
            assert scores == sorted(scores, reverse=True)

    def test_restore_rejects_foreign_vocab(self, pipeline, capsys):
        tmp_path, config, corpus, _, train_dir = pipeline
        other = generate_corpus(30, seed=99)
        other_path = tmp_path / "other.jsonl"
        save_corpus(other, other_path)
        vocab = build_vocab(other, 50, LanguageConfig.for_language("english"))
        foreign = tmp_path / "foreign-vocab.json"
        vocab.save(str(foreign))
        code = main([
            "restore", "--in", str(corpus),
            "--checkpoint", str(train_dir / "checkpoint.bin"),
            "--vocab", str(foreign),
            "--out-dir", str(tmp_path / "out"), "--config", config,
        ])
        assert code == 1
        assert "does not match" in capsys.readouterr().err

    def test_restore_rejects_duplicate_ids(self, pipeline):
        tmp_path, config, _, _, train_dir = pipeline
        dup = tmp_path / "dup.jsonl"
        record = json.dumps(
            {"context": ["a"], "utterance": "b", "id": "same"}
        )
        dup.write_text(record + "\n" + record + "\n", encoding="utf-8")
        code = main([
            "restore", "--in", str(dup),
            "--checkpoint", str(train_dir / "checkpoint.bin"),
            "--out-dir", str(tmp_path / "out"), "--config", config,
        ])
        assert code == 1

    def test_restore_nbest_matches_per_sample(self, tmp_path, tiny_config):
        # 70 samples of mixed input length span three decoding chunks
        corpus = generate_corpus(70, seed=5)
        corpus_path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, corpus_path)
        lang = LanguageConfig.for_language("english")
        vocab = build_vocab(corpus, 300, lang)
        train_dir = tmp_path / "train"
        train_dir.mkdir()
        vocab.save(str(train_dir / "vocab.json"))
        save_checkpoint(init_parameters(make_model_config(
            len(vocab), "hard", seed=3, d_model=8, num_layers=1, num_heads=2,
            ffn_dim=16, picker_hidden=(4,), dropout=0.0)),
            str(train_dir / "checkpoint.bin"), None)
        out_dir = tmp_path / "restore"
        code = main([
            "restore", "--in", str(corpus_path),
            "--checkpoint", str(train_dir / "checkpoint.bin"),
            "--out-dir", str(out_dir), "--config", tiny_config,
            "--nbest", "3", "--max-len", "8",
        ])
        assert code == 0
        rows = [
            json.loads(l)
            for l in (out_dir / "predictions.jsonl").read_text().splitlines()
        ]
        params, _ = load_checkpoint(str(train_dir / "checkpoint.bin"))
        beam = TINY_CONFIG["inference"]["beam_size"]
        for sample, row in zip(corpus, rows, strict=True):
            ranked = restore_ranked([sample], params, vocab, lang, beam, 8,
                                    nbest=3)[0]
            assert row["id"] == sample.id
            assert [item["prediction"] for item in row["nbest"]] == [
                text for text, _ in ranked]

    @pytest.mark.parametrize("nbest", ["1", "2"])
    def test_restore_checks_vocab_size_at_any_nbest(self, tmp_path, nbest,
                                                     capsys):
        # no recorded vocab digest, so only the size check can catch this
        corpus = run_synth(tmp_path)
        params = init_parameters(make_model_config(
            45, "hard", d_model=8, num_layers=1, num_heads=2, ffn_dim=16,
            picker_hidden=(4,), rel_pos_buckets=8, rel_pos_max_distance=16,
            dropout=0.0))
        train_dir = tmp_path / "train"
        train_dir.mkdir()
        save_checkpoint(params, str(train_dir / "checkpoint.bin"), None)
        words = [f"w{i}" for i in range(20 - len(RESERVED_TOKENS))]
        Vocabulary.from_tokens([*RESERVED_TOKENS, *words]).save(
            str(train_dir / "vocab.json"))
        out_dir = tmp_path / "restore"
        code = main([
            "restore", "--in", str(corpus),
            "--checkpoint", str(train_dir / "checkpoint.bin"),
            "--out-dir", str(out_dir), "--nbest", nbest,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "checkpoint expects vocabulary of 45 tokens, got 20" in err
        assert not (out_dir / "predictions.jsonl").exists()

    def test_evaluate_on_labeled_gold(self, pipeline, capsys):
        tmp_path, config, corpus, labeled, train_dir = pipeline
        restore_dir = tmp_path / "restore"
        assert main([
            "restore", "--in", str(corpus),
            "--checkpoint", str(train_dir / "checkpoint.bin"),
            "--out-dir", str(restore_dir), "--config", config,
        ]) == 0
        eval_dir = tmp_path / "eval"
        code = main([
            "evaluate", "--predictions", str(restore_dir / "predictions.jsonl"),
            "--gold", str(labeled), "--out-dir", str(eval_dir),
        ])
        assert code == 0
        report = json.loads((eval_dir / "report.json").read_text())
        for key in ("rouge1", "bleu2", "f1", "em", "pickup_ratio",
                    "difference", "bleu_by_length"):
            assert key in report
        assert "rouge1" in (eval_dir / "report.txt").read_text()
        assert "rouge1" in capsys.readouterr().out

    def test_evaluate_on_raw_gold(self, pipeline):
        tmp_path, config, corpus, _, train_dir = pipeline
        restore_dir = tmp_path / "restore"
        assert main([
            "restore", "--in", str(corpus),
            "--checkpoint", str(train_dir / "checkpoint.bin"),
            "--out-dir", str(restore_dir), "--config", config,
        ]) == 0
        code = main([
            "evaluate", "--predictions", str(restore_dir / "predictions.jsonl"),
            "--gold", str(corpus), "--out-dir", str(tmp_path / "eval"),
        ])
        assert code == 0

    def test_evaluate_numeric_prediction_ids(self, pipeline):
        # load_corpus reads "id": 3 as "3"; a predictions file must match it
        tmp_path, _, corpus, _, _ = pipeline
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(
            json.dumps({"id": i, "prediction": "x"}) + "\n" for i in range(8)
        ), encoding="utf-8")
        code = main([
            "evaluate", "--predictions", str(preds),
            "--gold", str(corpus), "--out-dir", str(tmp_path / "eval"),
        ])
        assert code == 0

    def test_evaluate_missing_prediction(self, pipeline, capsys):
        tmp_path, _, corpus, _, _ = pipeline
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": "0", "prediction": "x"}\n', encoding="utf-8")
        code = main([
            "evaluate", "--predictions", str(preds),
            "--gold", str(corpus), "--out-dir", str(tmp_path / "eval"),
        ])
        assert code == 2
        assert "missing prediction" in capsys.readouterr().err

    def test_evaluate_repeated_gold_id(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_text(
            '{"id": "a", "context": ["the cat"], "utterance": "it sat", '
            '"reference": "the cat sat"}\n'
            '{"id": "a", "context": ["the dog"], "utterance": "it ran", '
            '"reference": "the dog ran"}\n', encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": "a", "prediction": "the cat sat"}\n', encoding="utf-8")
        code = main([
            "evaluate", "--predictions", str(preds),
            "--gold", str(gold), "--out-dir", str(tmp_path / "eval"),
        ])
        assert code == 2
        assert "repeated gold sample id 'a'" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "report.json").exists()

    def test_evaluate_bad_labeled_gold_line(self, tmp_path, capsys):
        # line 3's first label row is one word short: the labeled file is
        # refused, not re-read as a raw corpus
        labeled = run_label(tmp_path, run_synth(tmp_path))
        records = [json.loads(l) for l in labeled.read_text().splitlines()]
        records[2]["labels"]["tags"][0].pop()
        labeled.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(
            json.dumps({"id": r["id"], "prediction": "x"}) + "\n" for r in records
        ), encoding="utf-8")
        code = main([
            "evaluate", "--predictions", str(preds),
            "--gold", str(labeled), "--out-dir", str(tmp_path / "eval"),
        ])
        assert code == 2
        assert f"{labeled}:3: utterance 0 has " in capsys.readouterr().err
        assert not (tmp_path / "eval" / "report.json").exists()

    @pytest.mark.parametrize("bad_line,problem", [
        ("not json", "invalid JSON"),
        ("5", "must be a JSON object"),
    ])
    def test_evaluate_bad_prediction_line(self, pipeline, capsys, bad_line,
                                          problem):
        tmp_path, _, corpus, _, _ = pipeline
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": "0", "prediction": "x"}\n' + bad_line + "\n",
                         encoding="utf-8")
        code = main([
            "evaluate", "--predictions", str(preds),
            "--gold", str(corpus), "--out-dir", str(tmp_path / "eval"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{preds}:2: " in err
        assert problem in err


class TestPipelineDeterminism:
    def test_two_runs_byte_identical(self, tmp_path, tiny_config):
        outputs = []
        for tag in ("one", "two"):
            corpus = run_synth(tmp_path, out=f"synth-{tag}")
            labeled = run_label(tmp_path, corpus, out=f"label-{tag}")
            train_dir = run_train(
                tmp_path, labeled, tiny_config, out=f"train-{tag}"
            )
            restore_dir = tmp_path / f"restore-{tag}"
            assert main([
                "restore", "--in", str(corpus),
                "--checkpoint", str(train_dir / "checkpoint.bin"),
                "--out-dir", str(restore_dir), "--config", tiny_config,
            ]) == 0
            outputs.append((
                corpus.read_bytes(),
                labeled.read_bytes(),
                (train_dir / "checkpoint.bin").read_bytes(),
                (train_dir / "loss_log.csv").read_bytes(),
                (restore_dir / "predictions.jsonl").read_bytes(),
            ))
        assert outputs[0] == outputs[1]


def test_console_script_runs():
    # the child imports pickgen from where this process did
    src = os.path.dirname(os.path.dirname(pickgen.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pickgen.cli", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()
