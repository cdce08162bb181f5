"""Toy-scale encoder-decoder transformer with a token-importance picker
head and a generation head, built on the in-package autodiff engine.

Architecture follows the T5 family: pre-norm residual blocks with RMS
normalization, no biases on attention or feed-forward projections, shared
input embedding between encoder and decoder, and bucketed relative-position
biases added to attention logits (bidirectional buckets in the encoder,
unidirectional in the decoder, none on cross attention). An optional flag
also adds a learned absolute position embedding to the input; the
relative-position biases apply either way.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, attention, parameter, relu_matmul, residual

NORM_EPS = 1e-6
MASK_NEG = -1e9
CHECKPOINT_VERSION = 1


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
    literal_pe: bool = False
    max_positions: int = 512
    seed: int = 0

    def __post_init__(self):
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


def _tensor_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) listing; fixes parameter and payload order."""
    d, f, h = cfg.d_model, cfg.ffn_dim, cfg.num_heads
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("embedding", (cfg.vocab_size, d)),
        ("lm_head", (d, cfg.vocab_size)),
        ("enc_rel_bias", (cfg.rel_pos_buckets, h)),
        ("dec_rel_bias", (cfg.rel_pos_buckets, h)),
    ]
    if cfg.literal_pe:
        shapes.append(("pe_table", (cfg.max_positions, d)))
    for i in range(cfg.num_layers):
        shapes += [
            (f"enc{i}.norm1", (d,)),
            (f"enc{i}.attn.wq", (d, d)),
            (f"enc{i}.attn.wk", (d, d)),
            (f"enc{i}.attn.wv", (d, d)),
            (f"enc{i}.attn.wo", (d, d)),
            (f"enc{i}.norm2", (d,)),
            (f"enc{i}.ffn.w1", (d, f)),
            (f"enc{i}.ffn.w2", (f, d)),
        ]
    shapes.append(("enc_final_norm", (d,)))
    for i in range(cfg.num_layers):
        shapes += [
            (f"dec{i}.norm1", (d,)),
            (f"dec{i}.self.wq", (d, d)),
            (f"dec{i}.self.wk", (d, d)),
            (f"dec{i}.self.wv", (d, d)),
            (f"dec{i}.self.wo", (d, d)),
            (f"dec{i}.norm2", (d,)),
            (f"dec{i}.cross.wq", (d, d)),
            (f"dec{i}.cross.wk", (d, d)),
            (f"dec{i}.cross.wv", (d, d)),
            (f"dec{i}.cross.wo", (d, d)),
            (f"dec{i}.norm3", (d,)),
            (f"dec{i}.ffn.w1", (d, f)),
            (f"dec{i}.ffn.w2", (f, d)),
        ]
    shapes.append(("dec_final_norm", (d,)))
    widths = (cfg.d_model, *cfg.picker_widths)
    for j in range(len(cfg.picker_widths)):
        shapes.append((f"picker.w{j}", (widths[j], widths[j + 1])))
        shapes.append((f"picker.b{j}", (widths[j + 1],)))
    return shapes


def is_weight_matrix(name: str, shape: tuple[int, ...]) -> bool:
    """Tensors eligible for decoupled weight decay: 2-D projection weights,
    excluding embeddings, relative-bias tables, norms, and biases."""
    if len(shape) != 2:
        return False
    return name not in ("embedding", "pe_table") and not name.endswith("_rel_bias")


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
    """Seed-deterministic scaled random initialization; biases zero."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    tensors: dict[str, Tensor] = {}
    for name, shape in _tensor_shapes(cfg):
        if len(shape) == 1:  # the picker biases start at zero, norm scales at one
            data = np.zeros(shape) if name.startswith("picker.") else np.ones(shape)
        elif name in ("embedding", "pe_table"):
            data = rng.standard_normal(shape)
        elif name.endswith("_rel_bias"):
            data = rng.standard_normal(shape) * 0.1
        else:
            fan_in, fan_out = shape[0], shape[1]
            std = math.sqrt(2.0 / (fan_in + fan_out))
            data = rng.standard_normal(shape) * std
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
    per decoder row, cross-attention ones once per encoder row.
    """

    source: np.ndarray  # (R,)
    length: int = 0  # decoder positions held
    self_kv: list = field(default_factory=list)  # per layer, (R, T, d_model) tensors
    cross_kv: list = field(default_factory=list)  # per layer, (S, L, d_model) tensors

    def reorder(self, rows: np.ndarray) -> None:
        """Keep decoder rows `rows` (repeats allowed), in that order; their
        sources must stay non-decreasing."""
        self.source = self.source[rows]
        self.self_kv = [
            (Tensor(k.data[rows]), Tensor(v.data[rows])) for k, v in self.self_kv
        ]


# ---------------------------------------------------------------------------
# Building blocks

def _check_finite(x: Tensor, where: str) -> None:
    if not np.isfinite(x.data).all():
        raise NonFiniteError(f"non-finite activation in {where}")


def _dropout(x: Tensor, rate: float, rng) -> Tensor:
    if rng is None or rate <= 0.0:
        return x
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * keep


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


def _rel_bias(table: Tensor, q_len: int, k_len: int, bidirectional: bool,
              cfg: ModelConfig, offset: int = 0) -> Tensor:
    """Bias for queries at positions offset..offset+q_len-1 over keys at
    0..k_len-1."""
    positions = np.arange(k_len)[None, :] - np.arange(offset, offset + q_len)[:, None]
    idx = relative_position_bucket(
        positions, bidirectional, cfg.rel_pos_buckets, cfg.rel_pos_max_distance
    )
    return table.lookup(idx)  # (Lq, Lk, H)


def _attn_weights(params: ModelParameters, prefix: str) -> dict[str, Tensor]:
    return {k: params[f"{prefix}.{k}"] for k in ("wq", "wk", "wv", "wo")}


def _key_mask_bias(mask: np.ndarray) -> np.ndarray:
    # (B, L) -> (B, 1, 1, L) additive bias blocking attention to padding
    return (1.0 - mask)[:, None, None, :] * MASK_NEG


def _causal_bias(q_len: int, k_len: int) -> np.ndarray:
    # the queries are the last q_len of the k_len positions
    return np.triu(np.full((q_len, k_len), MASK_NEG), k=k_len - q_len + 1)[None, None]


def check_positions(cfg: ModelConfig, length: int) -> None:
    """Raise ModelError when a literal-PE model has no position embedding
    for each of `length` positions."""
    if cfg.literal_pe and length > cfg.max_positions:
        raise ModelError(f"max_positions {cfg.max_positions} cannot hold "
                         f"{length} positions")


def embed(input_ids: np.ndarray, params: ModelParameters, offset: int = 0) -> Tensor:
    """Word embedding rows, plus a learned absolute positional term (for
    positions offset onwards) when the literal-PE flag is on."""
    ids = np.asarray(input_ids, dtype=np.int64)
    cfg = params.config
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise ModelError("token id out of vocabulary range")
    x = params["embedding"].lookup(ids)
    if cfg.literal_pe:
        length = offset + ids.shape[-1]
        check_positions(cfg, length)
        x = x + params["pe_table"].lookup(np.arange(offset, length))
    return x


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
    rel = _rel_bias(params["enc_rel_bias"], length, length, True, cfg)
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
        # only the search reaches this, under no_grad: held keys are constants
        old_k, old_v = cache.self_kv[layer]
        k = Tensor(np.concatenate([old_k.data, k.data], axis=1))
        v = Tensor(np.concatenate([old_v.data, v.data], axis=1))
        cache.self_kv[layer] = (k, v)
    else:
        cache.self_kv.append((k, v))
    return attention(q, k, v, cfg.num_heads, rel, causal_bias)


def _cross_attention(
    cache: DecoderCache, layer: int, h: Tensor, enc: EncoderOutput,
    weights: dict[str, Tensor], cfg: ModelConfig, key_bias: np.ndarray,
) -> Tensor:
    """Attention of the decoder rows over their encoder rows' keys, before
    the out-projection. The rows decoding one encoder row become the query
    positions of one attention over that row's keys, so keys are never
    copied per row."""
    if not cache.length:
        cache.cross_kv.append((enc.hidden @ weights["wk"], enc.hidden @ weights["wv"]))
    k, v = cache.cross_kv[layer]
    rows, t, d = h.shape
    sources = enc.hidden.shape[0]
    slot = np.arange(rows) - np.searchsorted(cache.source, cache.source)
    width = int(slot.max()) + 1
    direct = width == 1 and rows == sources  # decoder row r decodes encoder row r
    q = h
    if not direct:
        # (source, slot) -> decoder row; unused slots read row 0 and are dropped
        members = np.zeros((sources, width), dtype=np.int64)
        members[cache.source, slot] = np.arange(rows)
        q = h.lookup(members).reshape(sources, width * t, d)
    out = attention(q @ weights["wq"], k, v, cfg.num_heads, None, key_bias)
    if direct:
        return out
    return out.reshape(sources * width, t, d).lookup(cache.source * width + slot)


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
    those it holds, and the cache grows by them. Without a cache they are
    whole prefixes of the encoder's rows (teacher forcing), decoded from a
    fresh cache.
    """
    cfg = params.config
    ids = np.asarray(decoder_input_ids, dtype=np.int64)
    if cache is None:
        cache = DecoderCache(source=np.arange(enc.hidden.shape[0]))
    past = cache.length
    y = _dropout(embed(ids, params, past), cfg.dropout, dropout_rng)
    t = y.shape[1]
    rel = _rel_bias(params["dec_rel_bias"], t, past + t, False, cfg, past)
    self_bias = _causal_bias(t, past + t)
    cross_bias = _key_mask_bias(enc.mask)
    for i in range(cfg.num_layers):
        h = _rmsnorm(y, params[f"dec{i}.norm1"])
        weights = _attn_weights(params, f"dec{i}.self")
        a = _self_attention(cache, i, h, weights, cfg, rel, self_bias)
        y = _residual(y, a, weights["wo"], cfg.dropout, dropout_rng)
        h = _rmsnorm(y, params[f"dec{i}.norm2"])
        weights = _attn_weights(params, f"dec{i}.cross")
        a = _cross_attention(cache, i, h, enc, weights, cfg, cross_bias)
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
# Checkpoint container: one JSON manifest line, then raw little-endian
# float32 payloads back to back in manifest order; loading rejects any other
# layout.

def save_checkpoint(
    params: ModelParameters, path: str, vocab_sha256: str | None = None
) -> None:
    """Write via a temp file and os.replace: a failed write leaves path as it was."""
    entries = []
    offset = 0
    payloads = []
    for name, tensor in params.named_tensors():
        payload = tensor.data.astype("<f4").tobytes()
        entries.append(
            {
                "name": name,
                "shape": list(tensor.data.shape),
                "offset": offset,
                "size": len(payload),
            }
        )
        offset += len(payload)
        payloads.append(payload)
    manifest = {
        "version": CHECKPOINT_VERSION,
        "config": params.config.to_dict(),
        "seed": params.config.seed,
        "vocab_sha256": vocab_sha256,
        "tensors": entries,
    }
    tmp = f"{path}.{os.getpid()}.tmp"  # same directory, so os.replace is atomic
    try:
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(manifest, sort_keys=True).encode("utf-8") + b"\n")
            fh.writelines(payloads)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path: str) -> tuple[ModelParameters, dict]:
    """Read a checkpoint; returns parameters and the manifest."""
    with open(path, "rb") as fh:
        header = fh.readline()
        try:
            manifest = json.loads(header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelError(f"{path}: not a checkpoint file ({exc})") from exc
        if manifest.get("version") != CHECKPOINT_VERSION:
            raise ModelError(f"{path}: unsupported checkpoint version")
        cfg = ModelConfig.from_dict(manifest["config"])
        expected = _tensor_shapes(cfg)
        listed = [(e["name"], tuple(e["shape"])) for e in manifest["tensors"]]
        if listed != expected:
            raise ModelError(f"{path}: tensor listing does not match config")
        blob = fh.read()
    # the one payload layout: the listed tensors back to back
    total = 4 * sum(math.prod(shape) for _, shape in expected)
    if len(blob) != total:
        problem = "truncated" if len(blob) < total else "trailing bytes after the"
        raise ModelError(f"{path}: {problem} payload ({len(blob)} bytes, not {total})")
    tensors: dict[str, Tensor] = {}
    lo = 0
    for entry, (name, shape) in zip(manifest["tensors"], expected):
        hi = lo + 4 * math.prod(shape)
        if (entry["offset"], entry["size"]) != (lo, hi - lo):
            raise ModelError(
                f"{path}: {name} must span payload bytes {lo}..{hi}, not offset "
                f"{entry['offset']} size {entry['size']}")
        flat = np.frombuffer(blob[lo:hi], dtype="<f4").astype(np.float64)
        tensors[name] = parameter(flat.reshape(shape))
        lo = hi
    return ModelParameters(cfg, tensors), manifest
