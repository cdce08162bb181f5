"""Losses, the AdamW optimizer, and the joint training loop.

The joint objective is picker_weight * picker_loss + generator_loss; both
losses are means over unmasked positions so the weight is independent of
sequence length and batch shape.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .corpus import LanguageConfig, Vocabulary, atomic_write
from .encoding import (
    DEFAULT_MAX_LEN,
    IGNORE_MARK,
    EncodedSample,
    collate,
    encode_sample,
)
from .labeling import LABEL_MODES, PICKER_ARITY, LabeledSample
from .model import (
    ModelConfig,
    ModelParameters,
    backward,
    decode_forward,
    encode,
    init_parameters,
    is_weight_matrix,
    picker_forward,
    save_checkpoint,
)

logger = logging.getLogger("pickgen")

LOSS_LOG_HEADER = "epoch,step,picker_loss,generator_loss,joint_loss"


class TrainingError(ValueError):
    """Raised for invalid training setups (empty corpus, mode mismatch)."""


# The one AdamW recipe (Loshchilov & Hutter, ICLR 2019): moment decay rates,
# the denominator's epsilon, decoupled weight decay on projection matrices,
# and the global-norm cap on each step's gradients.
BETA1, BETA2, ADAM_EPS, WEIGHT_DECAY, GRAD_CLIP = 0.9, 0.999, 1e-8, 0.01, 1.0


@dataclass(frozen=True)
class TrainConfig:
    picker_weight: float = 1.0  # weight on the picker loss in the joint sum
    learning_rate: float = 5e-5
    batch_size: int = 12
    epochs: int = 6
    seed: int = 0
    label_mode: str = "hard"  # one of LABEL_MODES, or "none"
    subsample_fraction: float = 1.0
    max_len: int = DEFAULT_MAX_LEN

    def __post_init__(self):
        if not self.learning_rate > 0.0:
            raise TrainingError("learning_rate must be > 0")
        if not self.picker_weight >= 0:
            raise TrainingError("picker_weight must be >= 0")
        for name in ("learning_rate", "picker_weight"):
            if not math.isfinite(getattr(self, name)):
                raise TrainingError(f"{name} must be finite")
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise TrainingError("subsample_fraction must lie in (0, 1]")
        for name in ("batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise TrainingError(f"{name} must be >= 1")
        if self.label_mode not in (*LABEL_MODES, "none"):
            raise TrainingError(f"unknown label mode {self.label_mode!r}")


@dataclass
class TrainState:
    params: ModelParameters
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]
    step: int = 0
    epoch: int = 0
    skipped_steps: int = 0
    epoch_losses: dict[str, float] = field(default_factory=dict)

    @staticmethod
    def fresh(params: ModelParameters) -> "TrainState":
        zeros = {n: np.zeros_like(t.data) for n, t in params.named_tensors()}
        return TrainState(
            params=params,
            first_moment=zeros,
            second_moment={n: z.copy() for n, z in zeros.items()},
        )


# ---------------------------------------------------------------------------
# Losses. Both take logits (picker_forward / decode_forward outputs) and
# work in log space, so a confidently wrong prediction still gets a finite
# loss and a gradient.

def picker_loss(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean picker loss over unmasked positions not carrying the ignore mark.

    3-D logits (B, L, 3): cross-entropy against BIO class ids.
    2-D logits (B, L): binary cross-entropy with logits against soft scores.
    """
    targets = np.asarray(targets, dtype=np.float64)
    valid = (targets != IGNORE_MARK) * np.asarray(mask, dtype=np.float64)
    count = valid.sum()
    if count == 0.0:
        return Tensor(0.0)
    if logits.data.ndim == 3:
        classes = np.where(valid > 0.0, targets, 0.0).astype(np.int64)
        return logits.cross_entropy(classes, valid) * (1.0 / count)
    scores = np.where(valid > 0.0, targets, 0.0)
    return logits.bce_with_logits(scores, valid) * (1.0 / count)


def generator_loss(
    step_logits: Tensor, target_ids: np.ndarray, mask: np.ndarray
) -> Tensor:
    """Mean negative log-likelihood of the target token over real steps."""
    mask = np.asarray(mask, dtype=np.float64)
    count = mask.sum()
    if count == 0.0:
        return Tensor(0.0)
    return step_logits.cross_entropy(target_ids, mask) * (1.0 / count)


def joint_loss(lp: Tensor, lg: Tensor, picker_weight: float) -> Tensor:
    """picker_weight * picker loss + generator loss."""
    return lp * picker_weight + lg


# ---------------------------------------------------------------------------
# Optimization

def clip_gradients(
    grads: dict[str, np.ndarray], max_norm: float
) -> tuple[dict[str, np.ndarray], float]:
    """Scale gradients in place so their global L2 norm is at most max_norm;
    no two of them may share memory. A norm whose squares overflow while
    every gradient is finite is taken again over g / max|g|, and such
    gradients are divided by max|g| before they are scaled, so that neither
    step's factor is subnormal or zero even when the norm itself is inf."""
    with np.errstate(over="ignore"):
        total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if not math.isfinite(total) and all(np.isfinite(g).all() for g in grads.values()):
        top = max(float(np.abs(g).max(initial=0.0)) for g in grads.values())
        squares = sum(float(((g / top) ** 2).sum()) for g in grads.values())
        total = top * math.sqrt(squares)
        if 0.0 < max_norm < total:
            scale = max_norm / math.sqrt(squares)
            for g in grads.values():
                g /= top
                g *= scale
        return grads, total
    if max_norm <= 0.0 or total <= max_norm or total == 0.0:
        return grads, total
    scale = max_norm / total
    for g in grads.values():
        g *= scale
    return grads, total


def optimizer_step(
    state: TrainState, grads: dict[str, np.ndarray], cfg: TrainConfig
) -> TrainState:
    """Bias-corrected adaptive-moment update with decoupled weight decay on
    projection matrices; a non-finite gradient skips the whole step.

    Moments and weights are updated in place: every tensor keeps its data
    array, and the arithmetic is that of the plain formula, op for op."""
    for g in grads.values():
        if not np.isfinite(g).all():
            state.skipped_steps += 1
            logger.warning(
                "skipping optimizer step %d: non-finite gradient", state.step + 1
            )
            return state
    t = state.step + 1
    bias1 = 1.0 - BETA1**t
    bias2 = 1.0 - BETA2**t
    decay = cfg.learning_rate * WEIGHT_DECAY
    for name, tensor in state.params.named_tensors():
        g, w = grads[name], tensor.data
        m = state.first_moment[name]
        v = state.second_moment[name]
        # m = BETA1 * m + (1 - BETA1) * g;  v = BETA2 * v + (1 - BETA2) * g²
        m *= BETA1
        m += g * (1.0 - BETA1)
        v *= BETA2
        v += g * g * (1.0 - BETA2)
        # update = lr * (m / bias1) / (sqrt(v / bias2) + eps)
        denom = np.sqrt(v / bias2)
        denom += ADAM_EPS
        update = m / bias1
        update /= denom
        update *= cfg.learning_rate
        if is_weight_matrix(name, w.shape):  # decay from the weights before this step
            decay_term = w * decay
            w -= update
            w -= decay_term
        else:
            w -= update
    state.step = t
    return state


def subsample(corpus: list, fraction: float, seed: int) -> list:
    """Seeded uniform sample without replacement of ceil(fraction * N)
    items, preserving original order among survivors."""
    if not 0.0 < fraction <= 1.0:
        raise TrainingError("fraction must lie in (0, 1]")
    if fraction == 1.0:
        return list(corpus)
    n = len(corpus)
    # guard against float dust pushing an exact product over the ceiling
    k = max(1, math.ceil(fraction * n - 1e-9))
    rng = np.random.default_rng(seed)
    chosen = sorted(rng.choice(n, size=k, replace=False).tolist())
    return [corpus[i] for i in chosen]


# ---------------------------------------------------------------------------
# Training loop

@dataclass
class TrainResult:
    state: TrainState
    log_rows: list[tuple[int, int, float, float, float]]
    trained_samples: int
    checkpoint_path: str | None = None
    log_path: str | None = None


def _as_items(corpus, cfg: TrainConfig):
    """Normalize the corpus to (sample, labels-or-None) pairs and validate
    them: each has a reference, and labels of the configured label mode."""
    items = []
    for entry in corpus:
        if isinstance(entry, LabeledSample):
            items.append((entry.sample, entry.labels))
        else:
            items.append((entry, None))
    for sample, labels in items:
        if sample.reference is None:
            raise TrainingError(f"sample {sample.id!r} has no reference to train on")
        if cfg.label_mode != "none":
            if labels is None:
                raise TrainingError(
                    f"sample {sample.id!r} lacks labels required by "
                    f"label mode {cfg.label_mode!r}"
                )
            if labels.mode != cfg.label_mode:
                raise TrainingError(
                    f"sample {sample.id!r} carries {labels.mode!r} labels, "
                    f"config wants {cfg.label_mode!r}"
                )
    return items


def _validate_model_cfg(cfg: TrainConfig, model_cfg: ModelConfig) -> None:
    arity = PICKER_ARITY.get(cfg.label_mode)
    if arity is not None and model_cfg.picker_arity != arity:
        raise TrainingError(f"{cfg.label_mode} labels need picker_arity {arity}")


def _train_step(state: TrainState, samples: list[EncodedSample], epoch: int,
                cfg: TrainConfig, use_picker: bool, dropout_rng) -> tuple:
    """One batch's forward, joint loss, backward, clipping and AdamW update;
    returns its loss-log row. Its batch, graph and gradients die with it."""
    params = state.params
    batch = collate(samples)
    enc = encode(batch.input_ids, batch.input_mask, params, dropout_rng)
    logits = decode_forward(enc, batch.decoder_input, params, dropout_rng)
    lg = generator_loss(logits, batch.decoder_target, batch.target_mask)
    loss, lp_value = lg, 0.0
    if use_picker:
        preds = picker_forward(enc, params)
        lp = picker_loss(preds, batch.picker_targets, batch.input_mask)
        loss, lp_value = joint_loss(lp, lg, cfg.picker_weight), lp.item()
    grads, _ = clip_gradients(backward(loss, params), GRAD_CLIP)
    state = optimizer_step(state, grads, cfg)
    return epoch, state.step, lp_value, lg.item(), loss.item()


def train(
    corpus,
    cfg: TrainConfig,
    model_cfg: ModelConfig,
    vocab: Vocabulary,
    lang_cfg: LanguageConfig,
    out_dir: str | None = None,
) -> TrainResult:
    """Joint training: shuffled seeded mini-batches, forward, joint loss,
    exact backward, clipped AdamW steps; emits a per-step loss log. When
    out_dir is set, writes the vocabulary, the loss log and a checkpoint
    that records the vocabulary's digest and the language there. Each
    step's graph and gradients are freed when that step ends, so no step's
    arrays outlive it."""
    if not corpus:
        raise TrainingError("training corpus is empty")
    _validate_model_cfg(cfg, model_cfg)
    items = _as_items(corpus, cfg)
    if cfg.subsample_fraction < 1.0:
        items = subsample(items, cfg.subsample_fraction, cfg.seed)
    use_picker = cfg.picker_weight > 0.0 and cfg.label_mode != "none"
    encoded: list[EncodedSample] = [
        encode_sample(
            sample,
            vocab,
            lang_cfg,
            labels=labels if use_picker else None,
            max_len=cfg.max_len,
        )
        for sample, labels in items
    ]
    params = init_parameters(model_cfg)
    state = TrainState.fresh(params)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
    dropout_rng = (
        np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(2,)))
        if model_cfg.dropout > 0.0
        else None
    )
    rows: list[tuple[int, int, float, float, float]] = []
    starts = range(0, len(encoded), cfg.batch_size)
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(len(encoded))
        sums = [0.0, 0.0, 0.0]
        for lo in starts:
            samples = [encoded[i] for i in order[lo : lo + cfg.batch_size]]
            rows.append(_train_step(state, samples, epoch, cfg, use_picker, dropout_rng))
            sums = [s + loss for s, loss in zip(sums, rows[-1][2:])]
        state.epoch = epoch
        names = ("picker", "generator", "joint")
        state.epoch_losses = {k: s / len(starts) for k, s in zip(names, sums)}
    log_path = checkpoint_path = None
    if out_dir:
        vocab.save(os.path.join(out_dir, "vocab.json"))
        log_path = os.path.join(out_dir, "loss_log.csv")
        write_loss_log(rows, log_path)
        checkpoint_path = os.path.join(out_dir, "checkpoint.bin")
        save_checkpoint(params, checkpoint_path, vocab.sha256(), lang_cfg.language)
    return TrainResult(
        state=state,
        log_rows=rows,
        trained_samples=len(encoded),
        checkpoint_path=checkpoint_path,
        log_path=log_path,
    )


def write_loss_log(rows, path: str) -> None:
    """CSV loss log; floats rendered by repr for lossless determinism."""
    with atomic_write(path) as fh:
        fh.write(LOSS_LOG_HEADER + "\n")
        for epoch, step, lp, lg, joint in rows:
            fh.write(f"{epoch},{step},{lp!r},{lg!r},{joint!r}\n")


def make_model_config(
    vocab_size: int, label_mode: str, seed: int = 0, **overrides
) -> ModelConfig:
    """Toy-scale model config whose picker arity is the label mode's
    PICKER_ARITY ("none" trains no picker and keeps the hard arity).

    picker_hidden overrides the hidden widths of the picker head; the
    output arity is appended automatically.
    """
    arity = PICKER_ARITY.get(label_mode, PICKER_ARITY["hard"])
    hidden = tuple(overrides.pop("picker_hidden", ModelConfig.picker_widths[:-1]))
    defaults = dict(
        vocab_size=vocab_size,
        picker_widths=(*hidden, arity),
        picker_arity=arity,
        seed=seed,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)
