"""The three benchmark workloads: set-up, one measured operation, and the
output checks.

Each workload is a closed loop with one client in one process: the next
call starts when the previous one has returned. Every input comes from the
seed; pickgen only ever sees the generated inputs. Checks use public
pickgen APIs only, so that a later change to the numerics does not break
them.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from pickgen import autodiff, decoding, metrics, training
from pickgen.corpus import (
    RESERVED_TOKENS,
    DialogueSample,
    LanguageConfig,
    Vocabulary,
    build_vocab,
    tokenize,
)
from pickgen.decoding import (
    beam_search,
    default_max_decode_len,
    greedy_decode,
    hypothesis_text,
)
from pickgen.encoding import build_input
from pickgen.labeling import EmbeddingTable, label_corpus, labeled_to_record
from pickgen.model import init_parameters, load_checkpoint
from pickgen.synth import TEMPLATES, generate_corpus
from pickgen.training import TrainConfig, make_model_config

from spans import Tracer

VOCAB_MAX = 2000  # the CLI default vocabulary cap
BATCH_SIZE = 12
LEARNING_RATE = 2e-3
BEAM_SIZE = 8


@dataclass
class OpRecord:
    """One measured call: a train() run or a restore round or request."""

    wall_s: float
    samples: int  # numerator of samples_per_s
    attempted: int  # ops: train steps or restored samples
    failed: int
    latencies_ms: list[float]
    skipped_steps: int = 0


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def _sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(part.tobytes())
        else:
            digest.update(str(part).encode("utf-8"))
    return digest.hexdigest()


def _params_sha(params) -> str:
    return _sha(*(t.data for _, t in params.named_tensors()))


def _ops_since(tracer: Tracer, first: int, name: str) -> list[list]:
    return [s for s in tracer.spans[first:] if s[0] == name]


def _in_vocab(text: str, vocab: Vocabulary, lang: LanguageConfig) -> bool:
    return all(tok in vocab.token_to_id for tok in tokenize(text, lang))


def _check_decoding(
    check: CheckResult,
    params,
    vocab: Vocabulary,
    lang: LanguageConfig,
    sample: DialogueSample,
    max_len: int,
    restored: str | None,
) -> None:
    """Beam 1 equals greedy; the n-best list is score-sorted, within
    max_len + 1 ids, and led by the text restore() returned."""
    ids, _ = build_input(sample, vocab, lang)
    check.attempted += 1
    greedy = tuple(greedy_decode(params, ids, max_len))
    beam1 = tuple(beam_search(params, ids, beam_size=1, max_len=max_len)[0].generated())
    if greedy != beam1:
        check.fail(f"{sample.id}: beam 1 {beam1} != greedy {greedy}")
        return
    ranked = beam_search(params, ids, BEAM_SIZE, max_len, nbest=BEAM_SIZE)
    scores = [h.score(1.0) for h in ranked]
    if scores != sorted(scores, reverse=True):
        check.fail(f"{sample.id}: n-best not sorted by score")
    elif any(len(h.ids) > max_len + 1 for h in ranked):
        check.fail(f"{sample.id}: hypothesis longer than max_len + 1 ids")
    elif restored is not None and hypothesis_text(ranked[0], vocab, lang) != restored:
        check.fail(f"{sample.id}: n-best head differs from restore()")


# ---------------------------------------------------------------------------
# Bindings timed from outside. The op clock is all that runs when tracing is
# off: one span per train step (the optimizer step ends it) and per restored
# sample.

def install_clock(tracer: Tracer) -> None:
    tracer.patch(training, "optimizer_step", "training.optimizer_step")
    tracer.patch(decoding, "restore", "decoding.restore")


def _count_decoder(tracer: Tracer, args: dict) -> None:
    rows, length = np.shape(args["decoder_input_ids"])
    tracer.counts["model.decode_forward_calls"] += 1
    tracer.counts["model.decoder_positions"] += rows * length
    if tracer.current() == "decoding.beam_search":
        built = rows * args["params"].config.vocab_size
        tracer.counts["decoding.candidates"] += built
        tracer.counts["decoding.survivors"] += min(tracer.context["beam_size"], built)


def _note_beam(tracer: Tracer, args: dict) -> None:
    tracer.context["beam_size"] = args["beam_size"]


def install_layers(tracer: Tracer) -> None:
    install_clock(tracer)
    for name in ("encode_sample", "collate"):
        tracer.patch(training, name, f"encoding.{name}")
    tracer.patch(training, "encode", "model.encode")
    tracer.patch(training, "decode_forward", "model.decode_forward", _count_decoder)
    tracer.patch(training, "picker_forward", "model.picker_forward")
    tracer.patch(training, "save_checkpoint", "model.save_checkpoint")
    for name in ("generator_loss", "picker_loss", "joint_loss"):
        tracer.patch(training, name, "training.loss")
    tracer.patch(training, "backward", "autodiff.backward")
    tracer.patch(training, "clip_gradients", "training.clip_gradients")
    tracer.patch(decoding, "build_input", "encoding.build_input")
    tracer.patch(decoding, "beam_search", "decoding.beam_search", _note_beam)
    tracer.patch(decoding, "encode", "model.encode")
    tracer.patch(decoding, "decode_forward", "model.decode_forward", _count_decoder)
    tracer.patch(metrics, "label_sample", "labeling.label_sample")
    tracer.count_instances(autodiff.Tensor, "autodiff.tensors")


# ---------------------------------------------------------------------------
# train_synth

@dataclass
class TrainSetup:
    lang: LanguageConfig
    labeled: list
    vocab: Vocabulary
    model_cfg: object
    cfg: TrainConfig
    steps: int
    label_corpus_s: float
    reference_rows: list | None = None
    train_loss_final: float | None = None


class TrainSynth:
    """One training.train call per op on a synthetic hard-labeled corpus."""

    name = "train_synth"
    SIZES = {"full": (240, 2), "tiny": (24, 1)}  # samples, epochs

    def __init__(self, scale: str, work_dir: str):
        self.samples, self.epochs = self.SIZES[scale]
        self.work_dir = work_dir

    def setup(self, seed: int) -> TrainSetup:
        lang = LanguageConfig.for_language("english")
        corpus = generate_corpus(self.samples, seed)
        t0 = time.perf_counter()
        labeled = label_corpus(corpus, "hard", EmbeddingTable(), lang)
        label_s = time.perf_counter() - t0
        vocab = build_vocab(corpus, VOCAB_MAX, lang)
        cfg = TrainConfig(
            batch_size=BATCH_SIZE, learning_rate=LEARNING_RATE,
            epochs=self.epochs, seed=seed, label_mode="hard",
        )
        steps = math.ceil(len(corpus) / BATCH_SIZE) * self.epochs
        model_cfg = make_model_config(len(vocab), "hard", seed=seed)
        return TrainSetup(lang, labeled, vocab, model_cfg, cfg, steps, label_s)

    def fingerprint(self, st: TrainSetup) -> str:
        records = [labeled_to_record(item) for item in st.labeled]
        return _sha(json.dumps(records, sort_keys=True), st.vocab.id_to_token)

    def op(self, st: TrainSetup, tracer: Tracer, index: int) -> OpRecord:
        first = len(tracer.spans)
        with tempfile.TemporaryDirectory(dir=self.work_dir) as out:
            t0 = time.perf_counter()
            try:
                result = tracer.call(
                    "training.train", training.train, st.labeled, st.cfg,
                    st.model_cfg, st.vocab, st.lang, out_dir=out,
                )
            except Exception:
                traceback.print_exc()
                return OpRecord(time.perf_counter() - t0, 0, st.steps, st.steps, [])
            wall = time.perf_counter() - t0
            rows = result.log_rows
            failed = result.state.skipped_steps + sum(
                1 for row in rows if not all(math.isfinite(v) for v in row[2:])
            )
            if st.reference_rows is None:
                st.reference_rows = rows
                st.train_loss_final = result.state.epoch_losses["joint"]
                if not self._artifacts_ok(result, len(rows)):
                    failed = len(rows)
            elif rows != st.reference_rows:  # seeded training is deterministic
                failed = len(rows)
        ends = [s[2] for s in _ops_since(tracer, first, "training.optimizer_step")]
        latencies = [1e3 * (b - a) for a, b in zip(ends, ends[1:])]
        if not latencies and rows:
            latencies = [1e3 * wall / len(rows)]
        return OpRecord(
            wall, result.trained_samples * st.cfg.epochs, len(rows),
            min(failed, len(rows)), latencies, result.state.skipped_steps,
        )

    @staticmethod
    def _artifacts_ok(result, steps: int) -> bool:
        loaded, _ = load_checkpoint(result.checkpoint_path)
        trained = dict(result.state.params.named_tensors())
        if [n for n, _ in loaded.named_tensors()] != list(trained):
            return False
        for name, tensor in loaded.named_tensors():
            if not np.allclose(tensor.data, trained[name].data, rtol=1e-6, atol=1e-7):
                return False
        with open(result.log_path, encoding="utf-8") as fh:
            return sum(1 for _ in fh) == steps + 1

    def check(self, st: TrainSetup) -> CheckResult:
        return CheckResult()

    def quality(self, st: TrainSetup, scale: str) -> tuple[dict, list[str]]:
        return {"train_loss_final": st.train_loss_final}, []


# ---------------------------------------------------------------------------
# restore_synth

@dataclass
class RestoreSetup:
    lang: LanguageConfig
    held_out: list[DialogueSample]
    vocab: Vocabulary
    params: object
    max_len: int
    label_corpus_s: float
    predictions: dict[str, str] | None = None
    report: object = None


class RestoreSynth:
    """One decoding.restore_corpus call over a held-out split, then
    metrics.evaluate on its predictions, per op round.

    The model is always trained on the corpus of MODEL_SEED, and --seed
    draws the held-out dialogues, an equal number from each synth template.
    Models trained from different seeds, or held-out splits with another
    template mix, decode in up to 40% more decoder positions per sample,
    which would make runs of one commit disagree by more than the
    benchmark's bounds.
    """

    name = "restore_synth"
    MODEL_SEED = 0
    # training samples, epochs, held-out samples
    SIZES = {"full": (480, 4, 120), "tiny": (36, 1, 6)}
    CHECKED = 8  # held-out inputs, spread over the templates, the checks re-run
    # At full scale the trained model must restore at least this well
    # (percent); held-out splits of ten seeds score F1 95-96 and EM 87-91.
    F1_FLOOR = 80.0
    EM_FLOOR = 60.0

    def __init__(self, scale: str, work_dir: str):
        self.train_size, self.epochs, self.held_size = self.SIZES[scale]

    def setup(self, seed: int) -> RestoreSetup:
        lang = LanguageConfig.for_language("english")
        train_part = generate_corpus(self.train_size, self.MODEL_SEED)
        per_template = self.held_size // len(TEMPLATES)
        held_out = [
            replace(sample, id=f"t{k}-{sample.id}")
            for k in range(len(TEMPLATES))
            for sample in generate_corpus(
                per_template, seed * len(TEMPLATES) + k, templates=(k,)
            )
        ]
        t0 = time.perf_counter()
        labeled = label_corpus(train_part, "hard", EmbeddingTable(), lang)
        label_s = time.perf_counter() - t0
        vocab = build_vocab(train_part, VOCAB_MAX, lang)
        cfg = TrainConfig(
            batch_size=BATCH_SIZE, learning_rate=LEARNING_RATE,
            epochs=self.epochs, seed=self.MODEL_SEED, label_mode="hard",
        )
        model_cfg = make_model_config(len(vocab), "hard", seed=self.MODEL_SEED)
        params = training.train(labeled, cfg, model_cfg, vocab, lang).state.params
        max_len = default_max_decode_len(held_out, lang)
        return RestoreSetup(lang, held_out, vocab, params, max_len, label_s)

    def fingerprint(self, st: RestoreSetup) -> str:
        return _sha(
            _params_sha(st.params), st.vocab.id_to_token, st.max_len,
            [(s.context, s.incomplete, s.reference) for s in st.held_out],
        )

    def op(self, st: RestoreSetup, tracer: Tracer, index: int) -> OpRecord:
        first = len(tracer.spans)
        n = len(st.held_out)
        t0 = time.perf_counter()
        try:
            pairs = tracer.call(
                "decoding.restore_corpus", decoding.restore_corpus,
                st.held_out, st.params, st.vocab, st.lang, beam_size=BEAM_SIZE,
            )
            predictions = dict(pairs)
            report = tracer.call(
                "metrics.evaluate", metrics.evaluate, predictions, st.held_out, st.lang
            )
        except Exception:
            traceback.print_exc()
            return OpRecord(time.perf_counter() - t0, 0, n, n, [])
        wall = time.perf_counter() - t0
        if st.predictions is None:
            st.predictions, st.report = predictions, report
        bad = {
            s.id for s in st.held_out
            if s.id not in predictions
            or not _in_vocab(predictions[s.id], st.vocab, st.lang)
            or predictions[s.id] != st.predictions.get(s.id)
        }
        latencies = [
            1e3 * (s[2] - s[1]) for s in _ops_since(tracer, first, "decoding.restore")
        ]
        if not latencies:
            latencies = [1e3 * wall / n]
        return OpRecord(wall, n, n, len(bad), latencies)

    def check(self, st: RestoreSetup) -> CheckResult:
        result = CheckResult()
        restored = st.predictions or {}
        step = max(1, len(st.held_out) // self.CHECKED)
        for sample in st.held_out[::step][: self.CHECKED]:
            _check_decoding(
                result, st.params, st.vocab, st.lang, sample, st.max_len,
                restored.get(sample.id),
            )
        return result

    def quality(self, st: RestoreSetup, scale: str) -> tuple[dict, list[str]]:
        if st.report is None:
            return {}, ["no restore round completed"]
        found = {"restore_f1": st.report.f1, "restore_em": st.report.em}
        problems = []
        if scale == "full" and (
            st.report.f1 < self.F1_FLOOR or st.report.em < self.EM_FLOOR
        ):
            problems.append(
                f"quality below floor: f1 {st.report.f1:.1f} (>= {self.F1_FLOOR}), "
                f"em {st.report.em:.1f} (>= {self.EM_FLOOR})"
            )
        return found, problems


# ---------------------------------------------------------------------------
# restore_widevocab

@dataclass
class WideSetup:
    lang: LanguageConfig
    vocab: Vocabulary
    params: object
    requests: list[DialogueSample]
    outputs: dict[int, str] = field(default_factory=dict)


class RestoreWideVocab:
    """One decoding.restore call per request on a randomly initialised
    model with the CLI's default 2000-token vocabulary."""

    name = "restore_widevocab"
    SIZES = {"full": (20, 64), "tiny": (4, 4)}  # max_len, request pool
    VOCAB_SIZE = VOCAB_MAX
    INPUT_LEN = (40, 80)  # serialized input tokens, inclusive
    CHECKED = 2

    def __init__(self, scale: str, work_dir: str):
        self.max_len, self.pool = self.SIZES[scale]

    def setup(self, seed: int) -> WideSetup:
        lang = LanguageConfig.for_language("english")
        words = [f"w{i:04d}" for i in range(self.VOCAB_SIZE - len(RESERVED_TOKENS))]
        vocab = Vocabulary.from_tokens([*RESERVED_TOKENS, *words])
        params = init_parameters(make_model_config(len(vocab), "hard", seed=seed))
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        requests = [self._request(rng, words, i) for i in range(self.pool)]
        return WideSetup(lang, vocab, params, requests)

    def _request(self, rng, words: list[str], index: int) -> DialogueSample:
        """Two or three context turns and a 4-10 word utterance whose
        serialized form ([X1] per turn, [X2], </s>) has INPUT_LEN tokens."""
        total = int(rng.integers(self.INPUT_LEN[0], self.INPUT_LEN[1] + 1))
        turns = int(rng.integers(2, 4))
        incomplete = int(rng.integers(4, 11))
        context_words = total - turns - incomplete - 2
        sizes = rng.multinomial(context_words - turns, [1.0 / turns] * turns) + 1

        def utterance(n: int) -> str:
            return " ".join(words[int(i)] for i in rng.integers(len(words), size=n))

        return DialogueSample(
            tuple(utterance(int(n)) for n in sizes), utterance(incomplete), id=str(index)
        )

    def fingerprint(self, st: WideSetup) -> str:
        return _sha(_params_sha(st.params), [(r.context, r.incomplete) for r in st.requests])

    def op(self, st: WideSetup, tracer: Tracer, index: int) -> OpRecord:
        index %= len(st.requests)
        t0 = time.perf_counter()
        try:
            text = decoding.restore(
                st.requests[index], st.params, st.vocab, st.lang,
                beam_size=BEAM_SIZE, max_len=self.max_len,
            )
        except Exception:
            traceback.print_exc()
            return OpRecord(time.perf_counter() - t0, 0, 1, 1, [])
        wall = time.perf_counter() - t0
        expected = st.outputs.setdefault(index, text)
        ok = text == expected and _in_vocab(text, st.vocab, st.lang)
        return OpRecord(wall, 1, 1, 0 if ok else 1, [1e3 * wall])

    def check(self, st: WideSetup) -> CheckResult:
        result = CheckResult()
        for index, sample in enumerate(st.requests[: self.CHECKED]):
            _check_decoding(
                result, st.params, st.vocab, st.lang, sample, self.max_len,
                st.outputs.get(index),
            )
        return result

    def quality(self, st: WideSetup, scale: str) -> tuple[dict, list[str]]:
        lengths = [len(text.split()) for text in st.outputs.values()]
        return {"mean_output_tokens": float(np.mean(lengths)) if lengths else 0.0}, []


WORKLOADS = {w.name: w for w in (TrainSynth, RestoreSynth, RestoreWideVocab)}
