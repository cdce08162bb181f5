"""Toy-scale encoder-decoder transformer with a token-importance picker
head and a generation head, built on the in-package autodiff engine.

Architecture follows the T5 family: pre-norm residual blocks with RMS
normalization, no biases on attention or feed-forward projections, shared
input embedding between encoder and decoder, and bucketed relative-position
biases added to attention logits (bidirectional buckets in the encoder,
unidirectional in the decoder, none on cross attention).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, attention, dropout, parameter, relu_matmul, residual
from .corpus import atomic_write

NORM_EPS = 1e-6
MASK_NEG = -1e9
CHECKPOINT_VERSION = 3


class ModelError(ValueError):
    """Raised for inconsistent configurations or incompatible checkpoints."""


class NonFiniteError(RuntimeError):
    """Raised when a forward pass produces a non-finite activation."""


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 128
    picker_widths: tuple[int, ...] = (64, 32, 16, 3)
    picker_arity: int = 3
    rel_pos_buckets: int = 32
    rel_pos_max_distance: int = 128
    dropout: float = 0.1
    seed: int = 0

    def __post_init__(self):
        # every setting but dropout is integral; a manifest may say 8.0 for
        # 8, which passes the range checks and fails in numpy much later
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            items = value if f.name == "picker_widths" else (value,)
            if f.name != "dropout" and not all(
                    isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in items):
                raise ModelError(f"{f.name} must be integral, not {value!r}")
        if self.vocab_size < 6:
            raise ModelError("vocab_size must cover the 6 reserved tokens")
        for name in ("d_model", "num_layers", "num_heads", "ffn_dim"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1")
        if self.d_model % self.num_heads != 0:
            raise ModelError(
                f"d_model {self.d_model} not divisible by num_heads {self.num_heads}"
            )
        if self.picker_arity not in (1, 3):
            raise ModelError("picker_arity must be 1 (soft) or 3 (hard BIO)")
        if not self.picker_widths or self.picker_widths[-1] != self.picker_arity:
            raise ModelError("picker_widths must end with picker_arity")
        if min(self.picker_widths) < 1:
            raise ModelError(f"picker_hidden widths must be >= 1, "
                             f"not {list(self.picker_widths[:-1])}")
        if not 0.0 <= self.dropout < 1.0:
            raise ModelError("dropout must lie in [0, 1)")
        if self.rel_pos_buckets < 4 or self.rel_pos_buckets % 2 != 0:
            raise ModelError("rel_pos_buckets must be an even count >= 4")
        # relative_position_bucket divides by log(max_distance / (buckets // 2))
        if self.rel_pos_max_distance <= self.rel_pos_buckets // 2:
            raise ModelError(
                f"rel_pos_max_distance {self.rel_pos_max_distance} must exceed "
                f"rel_pos_buckets // 2 = {self.rel_pos_buckets // 2}"
            )

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["picker_widths"] = list(self.picker_widths)
        return data

    @staticmethod
    def from_dict(data: dict) -> "ModelConfig":
        data = dict(data)
        data["picker_widths"] = tuple(data["picker_widths"])
        return ModelConfig(**data)


# the projections of every attention sublayer, in listing order
ATTN_PROJECTIONS = ("wq", "wk", "wv", "wo")


def _tensor_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) listing; fixes parameter and payload order,
    and so the order of the initial draws."""
    d, f, h = cfg.d_model, cfg.ffn_dim, cfg.num_heads
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("embedding", (cfg.vocab_size, d)),
        ("lm_head", (d, cfg.vocab_size)),
        ("enc_rel_bias", (cfg.rel_pos_buckets, h)),
        ("dec_rel_bias", (cfg.rel_pos_buckets, h)),
    ]
    for stack, sublayers in (("enc", ("attn", "ffn")), ("dec", ("self", "cross", "ffn"))):
        for i in range(cfg.num_layers):
            for k, sublayer in enumerate(sublayers, 1):  # pre-norm: norm{k} first
                shapes.append((f"{stack}{i}.norm{k}", (d,)))
                if sublayer == "ffn":
                    shapes += [(f"{stack}{i}.ffn.w1", (d, f)), (f"{stack}{i}.ffn.w2", (f, d))]
                else:
                    shapes += [(f"{stack}{i}.{sublayer}.{w}", (d, d)) for w in ATTN_PROJECTIONS]
        shapes.append((f"{stack}_final_norm", (d,)))
    widths = (cfg.d_model, *cfg.picker_widths)
    for j in range(len(cfg.picker_widths)):
        shapes.append((f"picker.w{j}", (widths[j], widths[j + 1])))
        shapes.append((f"picker.b{j}", (widths[j + 1],)))
    return shapes


def is_weight_matrix(name: str, shape: tuple[int, ...]) -> bool:
    """Tensors eligible for decoupled weight decay, and the ones that
    init_parameters draws Glorot normal: 2-D projection weights, excluding
    the embedding, relative-bias tables, norms, and biases."""
    if len(shape) != 2:
        return False
    return name != "embedding" and not name.endswith("_rel_bias")


@dataclass
class ModelParameters:
    """All trainable tensors, keyed by canonical name in canonical order."""

    config: ModelConfig
    tensors: dict[str, Tensor]

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return list(self.tensors.items())

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def picker_names(self) -> list[str]:
        return [n for n in self.tensors if n.startswith("picker.")]


def init_parameters(cfg: ModelConfig) -> ModelParameters:
    """Seed-deterministic draws in listing order; Glorot normal where
    is_weight_matrix holds, biases zero."""
    rng = np.random.default_rng(cfg.seed)
    tensors: dict[str, Tensor] = {}
    for name, shape in _tensor_shapes(cfg):
        if len(shape) == 1:  # the picker biases start at zero, norm scales at one
            data = np.zeros(shape) if name.startswith("picker.") else np.ones(shape)
        elif is_weight_matrix(name, shape):
            data = rng.standard_normal(shape) * math.sqrt(2.0 / (shape[0] + shape[1]))
        else:  # N(0, 1) for the embedding, 0.1 N(0, 1) for the bias tables
            data = rng.standard_normal(shape) * (1.0 if name == "embedding" else 0.1)
        tensors[name] = parameter(data)
    return ModelParameters(cfg, tensors)


@dataclass
class EncoderOutput:
    hidden: Tensor  # (B, L, d_model)
    mask: np.ndarray  # (B, L), 1.0 on real tokens


@dataclass
class DecoderCache:
    """Attention keys and values of the positions decoded so far, so that
    each decoding step feeds only the newest token of every row.

    Decoder rows are the search's hypotheses, or in teacher forcing the
    batch rows (a fresh cache per call); source[r] is the encoder row that
    row r decodes, non-decreasing over r. Self-attention keys and values are held
    per decoder row; cross-attention ones and the key-mask bias, which the
    first call builds, once per encoder row; the query grid once per reorder,
    which each step after the first must follow (np.arange(R) keeps all rows).
    """

    source: np.ndarray  # (R,)
    length: int = 0  # decoder positions held
    self_kv: list = field(default_factory=list)  # per layer, (R, T or T + 1, d_model) tensors
    cross_kv: list = field(default_factory=list)  # per layer, (S, L, d_model) tensors
    key_bias: np.ndarray | None = None  # (S, 1, 1, L)
    grid: tuple | None = None  # _query_grid(source, S)

    def reorder(self, rows: np.ndarray) -> None:
        """Keep decoder rows `rows` (repeats allowed), in that order; their
        sources must stay non-decreasing. Held keys and values get room for a step."""
        self.source, self.grid = self.source[rows], None
        for kv in self.self_kv:
            for x in kv:  # constants of the search, given new arrays
                held, x.data = x.data, np.empty((len(rows), self.length + 1, x.shape[2]))
                x.data[:, :-1] = held[rows, :self.length]


# ---------------------------------------------------------------------------
# Building blocks

def _check_finite(x: Tensor, where: str) -> None:
    if not np.isfinite(x.data).all():
        raise NonFiniteError(f"non-finite activation in {where}")


def _dropout(x: Tensor, rate: float, rng) -> Tensor:
    if rng is None or rate <= 0.0:
        return x
    return dropout(x, rng.random(x.shape) >= rate, rate)


def _residual(x: Tensor, branch: Tensor, w: Tensor, rate: float, rng) -> Tensor:
    """x + dropout(branch @ w), one graph node."""
    keep = None if rng is None or rate <= 0.0 else rng.random(x.shape) >= rate
    return residual(x, branch, w, keep, rate)


def _rmsnorm(x: Tensor, scale: Tensor) -> Tensor:
    return x.rmsnorm(scale, NORM_EPS)


def relative_position_bucket(
    relative_position: np.ndarray,
    bidirectional: bool,
    num_buckets: int,
    max_distance: int,
) -> np.ndarray:
    """Bucket signed key-minus-query offsets: exact buckets near zero, log
    spaced out to max_distance, clamped beyond."""
    rel = relative_position.astype(np.int64)
    buckets = np.zeros_like(rel)
    n = num_buckets
    if bidirectional:
        n //= 2
        buckets += (rel > 0).astype(np.int64) * n
        rel = np.abs(rel)
    else:
        rel = -np.minimum(rel, 0)
    max_exact = n // 2
    is_small = rel < max_exact
    scaled = np.log(np.maximum(rel, 1) / max_exact) / math.log(max_distance / max_exact)
    if_large = (max_exact + scaled * (n - max_exact)).astype(np.int64)
    if_large = np.minimum(if_large, n - 1)
    buckets += np.where(is_small, rel, if_large)
    return buckets


@functools.lru_cache(maxsize=256)
def _rel_buckets(q_len: int, k_len: int, offset: int, bidirectional: bool,
                 num_buckets: int, max_distance: int) -> np.ndarray:
    """(Lq, Lk) bias-table rows for queries at positions offset..offset+q_len-1
    over keys at 0..k_len-1: one read-only view of the q_len + k_len - 1
    offsets' buckets per argument tuple."""
    line = relative_position_bucket(np.arange(1 - q_len - offset, k_len - offset),
                                    bidirectional, num_buckets, max_distance)
    return np.lib.stride_tricks.sliding_window_view(line, k_len)[::-1]


def _attn_weights(params: ModelParameters, prefix: str) -> dict[str, Tensor]:
    return {k: params[f"{prefix}.{k}"] for k in ATTN_PROJECTIONS}


def _key_mask_bias(mask: np.ndarray) -> np.ndarray:
    # (B, L) -> (B, 1, 1, L) additive bias blocking attention to padding
    return (1.0 - mask)[:, None, None, :] * MASK_NEG


def _causal_bias(q_len: int, k_len: int) -> np.ndarray:
    # the queries are the last q_len of the k_len positions
    return np.triu(np.full((q_len, k_len), MASK_NEG), k=k_len - q_len + 1)[None, None]


def embed(input_ids: np.ndarray, params: ModelParameters) -> Tensor:
    """Word embedding rows; word order reaches the model only through the
    relative-position biases."""
    ids = np.asarray(input_ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= params.config.vocab_size):
        raise ModelError("token id out of vocabulary range")
    return params["embedding"].lookup(ids)


def encode(
    input_ids: np.ndarray,
    mask: np.ndarray,
    params: ModelParameters,
    dropout_rng=None,
) -> EncoderOutput:
    """Stacked pre-norm self-attention blocks over the serialized input."""
    cfg = params.config
    mask = np.asarray(mask, dtype=np.float64)
    x = _dropout(embed(input_ids, params), cfg.dropout, dropout_rng)
    length = x.shape[1]
    rel = params["enc_rel_bias"].lookup(_rel_buckets(
        length, length, 0, True, cfg.rel_pos_buckets, cfg.rel_pos_max_distance))
    key_bias = _key_mask_bias(mask)
    for i in range(cfg.num_layers):
        h = _rmsnorm(x, params[f"enc{i}.norm1"])
        w = _attn_weights(params, f"enc{i}.attn")
        q, k, v = (h @ w[name] for name in ("wq", "wk", "wv"))
        a = attention(q, k, v, cfg.num_heads, rel, key_bias)
        x = _residual(x, a, w["wo"], cfg.dropout, dropout_rng)
        h = _rmsnorm(x, params[f"enc{i}.norm2"])
        f = relu_matmul(h, params[f"enc{i}.ffn.w1"])
        x = _residual(x, f, params[f"enc{i}.ffn.w2"], cfg.dropout, dropout_rng)
        _check_finite(x, f"encoder layer {i}")
    x = _rmsnorm(x, params["enc_final_norm"])
    return EncoderOutput(hidden=x, mask=mask)


def picker_forward(enc: EncoderOutput, params: ModelParameters) -> Tensor:
    """Per-position importance logits over the encoder output.

    Hard mode (arity 3): one logit per O/B/I class, shape (B, L, 3).
    Soft mode (arity 1): one logit per position, shape (B, L).
    """
    cfg = params.config
    y = enc.hidden
    n_layers = len(cfg.picker_widths)
    for j in range(n_layers):
        y = y @ params[f"picker.w{j}"] + params[f"picker.b{j}"]
        if j < n_layers - 1:
            y = y.relu()
    if cfg.picker_arity == 1:
        return y.reshape(y.shape[:-1])
    return y


def _self_attention(
    cache: DecoderCache, layer: int, h: Tensor, weights: dict[str, Tensor],
    cfg: ModelConfig, rel: Tensor, causal_bias: np.ndarray,
) -> Tensor:
    """Causal self attention of the positions in h over those the cache holds
    and themselves, before the out-projection; the cache then holds their
    keys and values too."""
    q, k, v = (h @ weights[name] for name in ("wq", "wk", "wv"))
    if cache.length:
        # only the search reaches this, under no_grad; reorder left room here
        for new, held in zip((k, v), cache.self_kv[layer]):
            held.data[:, cache.length:] = new.data
        k, v = cache.self_kv[layer]
    else:
        cache.self_kv.append((k, v))
    return attention(q, k, v, cfg.num_heads, rel, causal_bias)


def _query_grid(source: np.ndarray, sources: int) -> tuple:
    """(members, back): members[s, j] is the decoder row in slot j of encoder
    row s (unused slots read row 0), and back[r] is row r's place in
    members.ravel(); both None when decoder row r decodes encoder row r."""
    slot = np.arange(len(source)) - np.searchsorted(source, source)
    width = int(slot.max()) + 1
    if width == 1 and len(source) == sources:
        return None, None
    members = np.zeros((sources, width), dtype=np.int64)
    members[source, slot] = np.arange(len(source))
    return members, source * width + slot


def _cross_attention(
    cache: DecoderCache, layer: int, h: Tensor, enc: EncoderOutput,
    weights: dict[str, Tensor], cfg: ModelConfig,
) -> Tensor:
    """Attention of the decoder rows over their encoder rows' keys, before
    the out-projection. The rows decoding one encoder row become the query
    positions of one attention over that row's keys, so keys are never
    copied per row."""
    if not cache.length:
        cache.cross_kv.append((enc.hidden @ weights["wk"], enc.hidden @ weights["wv"]))
    k, v = cache.cross_kv[layer]
    members, back = cache.grid
    _, t, d = h.shape
    q = h if members is None else h.lookup(members).reshape(len(members), -1, d)
    out = attention(q @ weights["wq"], k, v, cfg.num_heads, None, cache.key_bias)
    return out if members is None else out.reshape(-1, t, d).lookup(back)


def decode_forward(
    enc: EncoderOutput,
    decoder_input_ids: np.ndarray,
    params: ModelParameters,
    dropout_rng=None,
    cache: DecoderCache | None = None,
) -> Tensor:
    """Per-step vocabulary logits (B, T, V): causal self attention, cross
    attention over unmasked encoder positions.

    The ids are the next ids of the cache's rows, at the positions after
    those it holds (one per row once it holds any), and the cache grows by
    them. Without a cache they are whole prefixes of the encoder's rows
    (teacher forcing), decoded from a fresh cache.
    """
    cfg = params.config
    ids = np.asarray(decoder_input_ids, dtype=np.int64)
    if cache is None:
        cache = DecoderCache(source=np.arange(enc.hidden.shape[0]))
    past = cache.length
    if not past:
        cache.key_bias = _key_mask_bias(enc.mask)
    elif cache.self_kv[0][0].shape[1] == past:
        raise ModelError("a cached decoding step must follow DecoderCache.reorder")
    if cache.grid is None:
        cache.grid = _query_grid(cache.source, enc.hidden.shape[0])
    y = _dropout(embed(ids, params), cfg.dropout, dropout_rng)
    t = y.shape[1]
    rel = params["dec_rel_bias"].lookup(_rel_buckets(
        t, past + t, past, False, cfg.rel_pos_buckets, cfg.rel_pos_max_distance))
    # a single query sees every key: its causal bias would be all zeros
    self_bias = None if t == 1 else _causal_bias(t, past + t)
    for i in range(cfg.num_layers):
        h = _rmsnorm(y, params[f"dec{i}.norm1"])
        weights = _attn_weights(params, f"dec{i}.self")
        a = _self_attention(cache, i, h, weights, cfg, rel, self_bias)
        y = _residual(y, a, weights["wo"], cfg.dropout, dropout_rng)
        h = _rmsnorm(y, params[f"dec{i}.norm2"])
        weights = _attn_weights(params, f"dec{i}.cross")
        a = _cross_attention(cache, i, h, enc, weights, cfg)
        y = _residual(y, a, weights["wo"], cfg.dropout, dropout_rng)
        h = _rmsnorm(y, params[f"dec{i}.norm3"])
        f = relu_matmul(h, params[f"dec{i}.ffn.w1"])
        y = _residual(y, f, params[f"dec{i}.ffn.w2"], cfg.dropout, dropout_rng)
        _check_finite(y, f"decoder layer {i}")
    cache.length += t
    y = _rmsnorm(y, params["dec_final_norm"])
    return y @ params["lm_head"]


def backward(loss: Tensor, params: ModelParameters) -> dict[str, np.ndarray]:
    """Exact gradients of a scalar loss for every parameter tensor;
    parameters outside the recorded graph get zero gradients. The loss's
    graph is used up (see Tensor.backward)."""
    loss.backward()
    grads: dict[str, np.ndarray] = {}
    for name, tensor in params.named_tensors():
        grads[name] = (
            tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        )
        tensor.grad = None
    return grads


# ---------------------------------------------------------------------------
# Checkpoint container: one JSON manifest line listing each tensor's name and
# shape, then the raw little-endian float64 tensors back to back in that
# order, so loading gives back the trained weights bit for bit.

def save_checkpoint(
    params: ModelParameters, path: str, vocab_sha256: str | None = None,
    language: str | None = None,
) -> None:
    """Write through atomic_write: a failed write leaves path as it was.
    The manifest records the vocabulary's digest and the language the
    model was trained on, when given."""
    manifest = {
        "version": CHECKPOINT_VERSION,
        "config": params.config.to_dict(),
        "vocab_sha256": vocab_sha256,
        "language": language,
        "tensors": [{"name": name, "shape": list(tensor.data.shape)}
                    for name, tensor in params.named_tensors()],
    }
    with atomic_write(path, binary=True) as fh:
        fh.write(json.dumps(manifest, sort_keys=True).encode("utf-8") + b"\n")
        for _, tensor in params.named_tensors():  # its own buffer, not a copy
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f8"))


def load_checkpoint(path: str) -> tuple[ModelParameters, dict]:
    """Read a checkpoint; returns parameters and the manifest."""
    with open(path, "rb") as fh:
        header = fh.readline()
        try:
            manifest = json.loads(header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelError(f"{path}: not a checkpoint file ({exc})") from exc
        if not isinstance(manifest, dict):
            raise ModelError(f"{path}: malformed manifest (not a JSON object)")
        version = manifest.get("version")
        if version != CHECKPOINT_VERSION:
            raise ModelError(f"{path}: unsupported checkpoint version {version!r}")
        try:
            cfg = ModelConfig.from_dict(manifest["config"])
            listed = [(e["name"], tuple(e["shape"])) for e in manifest["tensors"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(
                f"{path}: malformed manifest ({type(exc).__name__}: {exc})") from exc
        expected = _tensor_shapes(cfg)
        if listed != expected:
            raise ModelError(f"{path}: tensor listing does not match config")
        total = 8 * sum(math.prod(shape) for _, shape in expected)
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        if found != total:
            problem = "truncated" if found < total else "trailing bytes after the"
            raise ModelError(f"{path}: {problem} payload ({found} bytes, not {total})")
        # each tensor reads into its own array: one payload-sized buffer would
        # raise the peak memory of a process that trains after a load
        tensors = {}
        for name, shape in expected:
            data = np.empty(shape, dtype="<f8")
            fh.readinto(data)
            tensors[name] = parameter(data)
    return ModelParameters(cfg, tensors), manifest
