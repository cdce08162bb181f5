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
from .corpus import LanguageConfig, Vocabulary
from .encoding import (
    DEFAULT_MAX_LEN,
    IGNORE_MARK,
    EncodedSample,
    collate,
    encode_sample,
)
from .labeling import LABEL_MODES, LabeledSample
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

PROB_FLOOR = 1e-9

LOSS_LOG_HEADER = "epoch,step,picker_loss,generator_loss,joint_loss"


class TrainingError(ValueError):
    """Raised for invalid training setups (empty corpus, mode mismatch)."""


@dataclass(frozen=True)
class TrainConfig:
    picker_weight: float = 1.0  # weight on the picker loss in the joint sum
    learning_rate: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.01
    adam_eps: float = 1e-8
    batch_size: int = 12
    epochs: int = 6
    seed: int = 0
    label_mode: str = "hard"  # one of LABEL_MODES, or "none"
    subsample_fraction: float = 1.0
    checkpoint_every: int = 0  # epochs between periodic checkpoints; 0 = off
    grad_clip: float = 1.0  # global-norm cap; 0 disables clipping
    max_len: int = DEFAULT_MAX_LEN

    def __post_init__(self):
        if self.picker_weight < 0.0:
            raise TrainingError("picker_weight must be >= 0")
        if not 0.0 < self.subsample_fraction <= 1.0:
            raise TrainingError("subsample_fraction must lie in (0, 1]")
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1")
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
# Losses. Predictions are probability tensors (picker_forward /
# decode_forward outputs); probabilities are floored at PROB_FLOOR inside
# the logs so a confident wrong prediction cannot produce infinities.

def picker_loss(
    predictions: Tensor, targets: np.ndarray, mask: np.ndarray | None = None
) -> Tensor:
    """Mean picker loss over positions not carrying the ignore mark.

    3-D predictions (B, L, 3): cross-entropy against BIO class ids.
    2-D predictions (B, L): binary cross-entropy against soft scores.
    """
    targets = np.asarray(targets, dtype=np.float64)
    valid = (targets != IGNORE_MARK).astype(np.float64)
    if mask is not None:
        valid = valid * np.asarray(mask, dtype=np.float64)
    count = valid.sum()
    if count == 0.0:
        return Tensor(0.0)
    if predictions.data.ndim == 3:
        classes = np.where(valid > 0.0, targets, 0.0).astype(np.int64)
        p_target = predictions.gather_index(classes)
        per_pos = -(p_target.clip(PROB_FLOOR, 1.0).log())
    else:
        q = np.where(valid > 0.0, targets, 0.0)
        p = predictions
        per_pos = -(
            Tensor(q) * p.clip(PROB_FLOOR, 1.0).log()
            + Tensor(1.0 - q) * (1.0 - p).clip(PROB_FLOOR, 1.0).log()
        )
    return (per_pos * Tensor(valid)).sum() * (1.0 / count)


def generator_loss(
    step_distributions: Tensor, target_ids: np.ndarray, mask: np.ndarray
) -> Tensor:
    """Mean negative log-likelihood of the target token over real steps."""
    mask = np.asarray(mask, dtype=np.float64)
    count = mask.sum()
    if count == 0.0:
        return Tensor(0.0)
    p_target = step_distributions.gather_index(np.asarray(target_ids, dtype=np.int64))
    per_step = -(p_target.clip(PROB_FLOOR, 1.0).log())
    return (per_step * Tensor(mask)).sum() * (1.0 / count)


def joint_loss(lp, lg, picker_weight: float):
    """picker_weight * picker loss + generator loss (works on scalars and
    on graph tensors alike)."""
    if isinstance(lp, Tensor) or isinstance(lg, Tensor):
        return Tensor._coerce(lp) * picker_weight + Tensor._coerce(lg)
    return picker_weight * lp + lg


# ---------------------------------------------------------------------------
# Optimization

def clip_gradients(
    grads: dict[str, np.ndarray], max_norm: float
) -> tuple[dict[str, np.ndarray], float]:
    """Scale gradients so their global L2 norm is at most max_norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if max_norm <= 0.0 or total <= max_norm or total == 0.0:
        return grads, total
    scale = max_norm / total
    return {n: g * scale for n, g in grads.items()}, total


def optimizer_step(
    state: TrainState, grads: dict[str, np.ndarray], cfg: TrainConfig
) -> TrainState:
    """Bias-corrected adaptive-moment update with decoupled weight decay on
    projection matrices; a non-finite gradient skips the whole step."""
    for g in grads.values():
        if not np.isfinite(g).all():
            state.skipped_steps += 1
            logger.warning(
                "skipping optimizer step %d: non-finite gradient", state.step + 1
            )
            return state
    t = state.step + 1
    bias1 = 1.0 - cfg.beta1**t
    bias2 = 1.0 - cfg.beta2**t
    for name, tensor in state.params.named_tensors():
        g = grads[name]
        m = state.first_moment[name]
        v = state.second_moment[name]
        m[:] = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v[:] = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g)
        update = (m / bias1) / (np.sqrt(v / bias2) + cfg.adam_eps)
        new_value = tensor.data - cfg.learning_rate * update
        if cfg.weight_decay > 0.0 and is_weight_matrix(name, tensor.data.shape):
            new_value = new_value - cfg.learning_rate * cfg.weight_decay * tensor.data
        tensor.data = new_value
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
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
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
    them against the configured label mode."""
    items = []
    for entry in corpus:
        if isinstance(entry, LabeledSample):
            items.append((entry.sample, entry.labels))
        else:
            items.append((entry, None))
    if cfg.label_mode != "none":
        for sample, labels in items:
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
    if cfg.label_mode == "soft" and model_cfg.picker_arity != 1:
        raise TrainingError("soft labels need picker_arity 1")
    if cfg.label_mode == "hard" and model_cfg.picker_arity != 3:
        raise TrainingError("hard labels need picker_arity 3")


def train(
    corpus,
    cfg: TrainConfig,
    model_cfg: ModelConfig,
    vocab: Vocabulary,
    lang_cfg: LanguageConfig,
    out_dir: str | None = None,
    vocab_sha256: str | None = None,
) -> TrainResult:
    """Joint training: shuffled seeded mini-batches, forward, joint loss,
    exact backward, clipped AdamW steps; emits a per-step loss log and
    (when out_dir is set) checkpoints."""
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
    shuffle_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1,)))
    )
    dropout_rng = (
        np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(2,)))
        )
        if model_cfg.dropout > 0.0
        else None
    )
    rows: list[tuple[int, int, float, float, float]] = []
    checkpoint_path = None
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(len(encoded))
        sums = {"picker": 0.0, "generator": 0.0, "joint": 0.0}
        batches = 0
        for lo in range(0, len(encoded), cfg.batch_size):
            batch = collate([encoded[i] for i in order[lo : lo + cfg.batch_size]])
            enc = encode(batch.input_ids, batch.input_mask, params, dropout_rng)
            dists = decode_forward(enc, batch.decoder_input, params, dropout_rng)
            lg = generator_loss(dists, batch.decoder_target, batch.target_mask)
            if use_picker:
                preds = picker_forward(enc, params)
                lp = picker_loss(preds, batch.picker_targets, batch.input_mask)
                loss = joint_loss(lp, lg, cfg.picker_weight)
                lp_value = lp.item()
            else:
                loss = lg
                lp_value = 0.0
            grads = backward(loss, params)
            grads, _ = clip_gradients(grads, cfg.grad_clip)
            state = optimizer_step(state, grads, cfg)
            rows.append((epoch, state.step, lp_value, lg.item(), loss.item()))
            sums["picker"] += lp_value
            sums["generator"] += lg.item()
            sums["joint"] += loss.item()
            batches += 1
        state.epoch = epoch
        state.epoch_losses = {k: s / batches for k, s in sums.items()}
        if out_dir and cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0:
            save_checkpoint(
                params,
                os.path.join(out_dir, f"checkpoint_epoch{epoch}.bin"),
                vocab_sha256,
            )
    log_path = None
    if out_dir:
        log_path = os.path.join(out_dir, "loss_log.csv")
        write_loss_log(rows, log_path)
        checkpoint_path = os.path.join(out_dir, "checkpoint.bin")
        save_checkpoint(params, checkpoint_path, vocab_sha256)
    return TrainResult(
        state=state,
        log_rows=rows,
        trained_samples=len(encoded),
        checkpoint_path=checkpoint_path,
        log_path=log_path,
    )


def write_loss_log(rows, path: str) -> None:
    """CSV loss log; floats rendered by repr for lossless determinism."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LOSS_LOG_HEADER + "\n")
        for epoch, step, lp, lg, joint in rows:
            fh.write(f"{epoch},{step},{lp!r},{lg!r},{joint!r}\n")


def make_model_config(
    vocab_size: int, label_mode: str, seed: int = 0, **overrides
) -> ModelConfig:
    """Toy-scale model config whose picker arity matches the label mode.

    picker_hidden overrides the hidden widths of the picker head; the
    output arity is appended automatically. Passing picker_widths directly
    takes precedence and must already end in the arity.
    """
    arity = 1 if label_mode == "soft" else 3
    hidden = tuple(overrides.pop("picker_hidden", (64, 32, 16)))
    defaults = dict(
        vocab_size=vocab_size,
        picker_widths=(*hidden, arity),
        picker_arity=arity,
        seed=seed,
    )
    if "picker_widths" in overrides:
        overrides["picker_widths"] = tuple(overrides["picker_widths"])
        defaults["picker_arity"] = overrides["picker_widths"][-1]
    defaults.update(overrides)
    return ModelConfig(**defaults)
