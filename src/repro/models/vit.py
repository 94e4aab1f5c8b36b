"""Vision Transformer (Dosovitskiy et al., 2020) on :mod:`repro.nn`.

The implementation is deliberately close to the original ViT so that the
paper's three-stage structured pruning (Fig. 2) has well-defined targets:

* ``embed_dim`` (paper's *d*) — the residual-stream width, prunable in
  stage 1;
* ``attn_dim`` (paper's *h × d_q*) — the total width of the Q/K/V
  projections across heads, prunable in stage 2 without discarding whole
  heads (dims are pruned *within* heads, so ``attn_dim`` need not equal
  ``embed_dim`` after pruning);
* ``mlp_hidden`` (paper's *c*) — the FFN expansion width, prunable in
  stage 3.

Standard configurations (ViT-Small/Base/Large at 224×224, patch 16) match
Table I of the paper; scaled-down configurations are provided for trainable
experiments on synthetic data.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .. import nn
from ..nn import ops
from ..nn.backend import get_backend
from ..nn.tensor import Tensor, concat, is_grad_enabled, is_inference


@dataclasses.dataclass(frozen=True)
class ViTConfig:
    """Architecture hyper-parameters of a (possibly pruned) ViT."""

    image_size: int = 224
    patch_size: int = 16
    in_channels: int = 3
    num_classes: int = 1000
    depth: int = 12
    embed_dim: int = 768
    num_heads: int = 12
    attn_dim: int | None = None     # total q/k/v width; defaults to embed_dim
    mlp_hidden: int | None = None   # defaults to 4 * embed_dim
    dropout: float = 0.0
    name: str = "vit"

    def __post_init__(self):
        if self.image_size % self.patch_size != 0:
            raise ValueError("image_size must be divisible by patch_size")
        if self.resolved_attn_dim % self.num_heads != 0:
            raise ValueError("attn_dim must be divisible by num_heads")

    @property
    def resolved_attn_dim(self) -> int:
        return self.attn_dim if self.attn_dim is not None else self.embed_dim

    @property
    def resolved_mlp_hidden(self) -> int:
        return self.mlp_hidden if self.mlp_hidden is not None else 4 * self.embed_dim

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def head_dim(self) -> int:
        return self.resolved_attn_dim // self.num_heads

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "ViTConfig":
        return ViTConfig(**data)


class PatchEmbed(nn.Module):
    """Non-overlapping patch projection implemented as a strided conv."""

    def __init__(self, config: ViTConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.proj = nn.Conv2d(config.in_channels, config.embed_dim,
                              kernel_size=config.patch_size,
                              stride=config.patch_size, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        # (B, C, H, W) -> (B, D, H/ps, W/ps) -> (B, num_patches, D)
        feat = self.proj(x)
        b, d = feat.shape[0], feat.shape[1]
        return feat.reshape(b, d, -1).swapaxes(1, 2)


class MultiHeadSelfAttention(nn.Module):
    """MHSA with a decoupled internal width so pruning can shrink it.

    Q/K/V each project ``embed_dim -> attn_dim``; the output projection maps
    ``attn_dim -> embed_dim``.  With ``attn_dim == embed_dim`` this is the
    textbook ViT block.
    """

    def __init__(self, embed_dim: int, num_heads: int, attn_dim: int | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        attn_dim = attn_dim if attn_dim is not None else embed_dim
        if attn_dim % num_heads != 0:
            raise ValueError("attn_dim must be divisible by num_heads")
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.attn_dim = attn_dim
        self.head_dim = attn_dim // num_heads
        self.scale = 1.0 / math.sqrt(self.head_dim)
        self.qkv = nn.Linear(embed_dim, 3 * attn_dim, rng=rng)
        self.proj = nn.Linear(attn_dim, embed_dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            return Tensor._noback(self._fused_forward(x.data))
        b, p, _ = x.shape
        h, dh = self.num_heads, self.head_dim
        qkv = self.qkv(x)                              # (B, P, 3*A)
        qkv = qkv.reshape(b, p, 3, h, dh)
        qkv = qkv.transpose(2, 0, 3, 1, 4)             # (3, B, H, P, dh)
        q, k, v = qkv[0], qkv[1], qkv[2]
        attn = q.matmul(k.swapaxes(-1, -2)) * self.scale   # (B, H, P, P)
        attn = ops.softmax(attn, axis=-1)
        out = attn.matmul(v)                           # (B, H, P, dh)
        out = out.transpose(0, 2, 1, 3).reshape(b, p, h * dh)
        return self.proj(out)

    def _fused_forward(self, x):
        """Graph-free attention on raw arrays: one QKV GEMM, in-place scaled
        softmax, workspace-cached score/projection buffers."""
        bk = get_backend()
        ws = self.workspace if is_inference() else None
        b, p, _ = x.shape
        h, dh = self.num_heads, self.head_dim
        qkv = self.qkv.infer(
            bk, x,
            out=None if ws is None else ws.buffer(
                "qkv", (b, p, 3 * self.attn_dim), x.dtype))
        qkv = qkv.reshape(b, p, 3, h, dh).transpose(2, 0, 3, 1, 4)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scores = bk.matmul(
            q, k.swapaxes(-1, -2),
            out=None if ws is None else ws.buffer("scores", (b, h, p, p),
                                                  x.dtype))
        scores *= self.scale
        bk.softmax(scores, axis=-1, out=scores)
        ctx = bk.matmul(scores, v)                     # (B, H, P, dh)
        ctx = np.ascontiguousarray(ctx.transpose(0, 2, 1, 3)).reshape(b, p, h * dh)
        return self.proj.infer(
            bk, ctx,
            out=None if ws is None else ws.buffer("proj", (b, p, self.embed_dim),
                                                  x.dtype))

    def attention_weights(self, x: Tensor) -> np.ndarray:
        """Return softmax attention maps (B, H, P, P) without building a graph."""
        with nn.no_grad():
            b, p, _ = x.shape
            h, dh = self.num_heads, self.head_dim
            qkv = self.qkv(x).reshape(b, p, 3, h, dh).transpose(2, 0, 3, 1, 4)
            q, k = qkv[0], qkv[1]
            attn = q.matmul(k.swapaxes(-1, -2)) * self.scale
            return ops.softmax(attn, axis=-1).data


class FeedForward(nn.Module):
    """Two-layer MLP with GELU (the FFN of a transformer block)."""

    def __init__(self, embed_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.fc1 = nn.Linear(embed_dim, hidden_dim, rng=rng)
        self.fc2 = nn.Linear(hidden_dim, embed_dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            return Tensor._noback(self._fused_forward(x.data))
        return self.fc2(ops.gelu(self.fc1(x), self.workspace))

    def _fused_forward(self, x):
        """Graph-free FFN on raw arrays with the GELU fused as a GEMM
        epilogue (``Linear.infer``/``QuantizedLinear.infer``)."""
        bk = get_backend()
        ws = self.workspace if is_inference() else None
        h = self.fc1.infer(
            bk, x, activation="gelu",
            out=None if ws is None else ws.buffer(
                "ffn_hidden", x.shape[:-1] + (self.fc1.out_features,),
                x.dtype))
        return self.fc2.infer(
            bk, h,
            out=None if ws is None else ws.buffer(
                "ffn_out", x.shape[:-1] + (self.fc2.out_features,), x.dtype))


class Block(nn.Module):
    """Pre-norm transformer encoder block: x + MHSA(LN(x)); x + FFN(LN(x))."""

    def __init__(self, config: ViTConfig, rng: np.random.Generator):
        super().__init__()
        self.norm1 = nn.LayerNorm(config.embed_dim)
        self.attn = MultiHeadSelfAttention(config.embed_dim, config.num_heads,
                                           config.resolved_attn_dim, rng=rng)
        self.norm2 = nn.LayerNorm(config.embed_dim)
        self.mlp = FeedForward(config.embed_dim, config.resolved_mlp_hidden, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            return Tensor._noback(self._fused_forward(x.data))
        x = x + self.attn(self.norm1(x))
        x = x + self.mlp(self.norm2(x))
        return x

    def _fused_forward(self, x):
        """Graph-free block forward on raw arrays with in-place residuals.

        The second residual accumulates in place into the array freshly
        allocated by the first, so each block allocates exactly one
        residual-stream array; everything else lives in module workspaces
        under ``inference_mode()``.
        """
        h1 = self.norm1(Tensor._noback(x))
        x = x + self.attn._fused_forward(h1.data)
        h2 = self.norm2(Tensor._noback(x))
        x += self.mlp(h2).data
        return x


class VisionTransformer(nn.Module):
    """ViT classifier with a CLS token and learned positional embeddings."""

    def __init__(self, config: ViTConfig, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or nn.init.default_rng()
        self.config = config
        self.patch_embed = PatchEmbed(config, rng)
        self.cls_token = nn.Parameter(
            nn.init.trunc_normal(rng, (1, 1, config.embed_dim)))
        self.pos_embed = nn.Parameter(
            nn.init.trunc_normal(rng, (1, config.num_patches + 1, config.embed_dim)))
        self.dropout = nn.Dropout(config.dropout, rng=rng)
        self.blocks = nn.ModuleList([Block(config, rng) for _ in range(config.depth)])
        self.norm = nn.LayerNorm(config.embed_dim)
        self.head = nn.Linear(config.embed_dim, config.num_classes, rng=rng)

    # ------------------------------------------------------------------
    def _embed(self, x: Tensor) -> Tensor:
        tokens = self.patch_embed(x)                    # (B, P, D)
        b = tokens.shape[0]
        if not is_grad_enabled():
            cls = np.broadcast_to(self.cls_token.data,
                                  (b, 1, self.config.embed_dim))
            data = np.concatenate([cls, tokens.data], axis=1)
            data += self.pos_embed.data
            return self.dropout(Tensor._noback(data))
        cls = self.cls_token + nn.zeros((b, 1, self.config.embed_dim))
        tokens = concat([cls, tokens], axis=1)
        return self.dropout(tokens + self.pos_embed)

    def forward_features(self, x: Tensor,
                         token_keep_ratio: float | None = None) -> Tensor:
        """Return the normalized CLS embedding (B, embed_dim).

        This is the feature each edge device transmits to the fusion device
        (Section IV-E): its byte size is what Section V-D's communication
        accounting measures.

        ``token_keep_ratio`` enables inference-time token pruning (the
        orthogonal "token reduction" direction the paper cites): after the
        first block, only the patches the CLS token attends to most are
        kept — an EViT/Evo-ViT-style speedup that composes with ED-ViT's
        structural pruning.  ``None`` or ``1.0`` disables it.
        """
        tokens = self._embed(x)
        for i, block in enumerate(self.blocks):
            tokens = block(tokens)
            if (token_keep_ratio is not None and token_keep_ratio < 1.0
                    and i == 0 and len(self.blocks) > 1):
                tokens = self._prune_tokens(tokens, token_keep_ratio,
                                            next_block=self.blocks[1])
        return self.norm(tokens)[:, 0, :]

    def _prune_tokens(self, tokens: Tensor, keep_ratio: float,
                      next_block: "Block") -> Tensor:
        """Keep the CLS token plus the most-attended patch tokens."""
        if not 0.0 < keep_ratio <= 1.0:
            raise ValueError("token_keep_ratio must be in (0, 1]")
        b, p, _ = tokens.shape
        num_patches = p - 1
        keep = max(1, int(round(num_patches * keep_ratio)))
        # CLS -> patch attention of the *next* block scores token utility.
        attn = next_block.attn.attention_weights(next_block.norm1(tokens))
        cls_attention = attn.mean(axis=1)[:, 0, 1:]      # (B, patches)
        top = np.argsort(cls_attention, axis=-1)[:, -keep:]
        top = np.sort(top, axis=-1) + 1                  # +1 skips CLS
        index = np.concatenate(
            [np.zeros((b, 1), dtype=np.int64), top], axis=1)
        rows = np.arange(b, dtype=np.int64)[:, None]
        return tokens[rows, index]

    def forward(self, x: Tensor,
                token_keep_ratio: float | None = None) -> Tensor:
        return self.head(self.forward_features(x, token_keep_ratio))

    # ------------------------------------------------------------------
    def feature_dim(self) -> int:
        return self.config.embed_dim

    def replace_head(self, num_classes: int,
                     rng: np.random.Generator | None = None) -> None:
        """Swap the classification head (used when a sub-model serves a
        class subset plus the implicit "other" bucket)."""
        rng = rng or nn.init.default_rng()
        self.head = nn.Linear(self.config.embed_dim, num_classes, rng=rng)
        self.config = dataclasses.replace(self.config, num_classes=num_classes)


# ----------------------------------------------------------------------
# Standard configurations (Table I of the paper)
# ----------------------------------------------------------------------
def vit_small_config(num_classes: int = 1000, image_size: int = 224,
                     in_channels: int = 3) -> ViTConfig:
    return ViTConfig(image_size=image_size, patch_size=16, in_channels=in_channels,
                     num_classes=num_classes, depth=12, embed_dim=384, num_heads=6,
                     name="vit-small")


def vit_base_config(num_classes: int = 1000, image_size: int = 224,
                    in_channels: int = 3) -> ViTConfig:
    return ViTConfig(image_size=image_size, patch_size=16, in_channels=in_channels,
                     num_classes=num_classes, depth=12, embed_dim=768, num_heads=12,
                     name="vit-base")


def vit_large_config(num_classes: int = 1000, image_size: int = 224,
                     in_channels: int = 3) -> ViTConfig:
    return ViTConfig(image_size=image_size, patch_size=16, in_channels=in_channels,
                     num_classes=num_classes, depth=24, embed_dim=1024, num_heads=16,
                     name="vit-large")


def vit_tiny_config(num_classes: int = 10, image_size: int = 32,
                    in_channels: int = 3, depth: int = 4, embed_dim: int = 64,
                    num_heads: int = 4, patch_size: int = 8) -> ViTConfig:
    """Scaled-down ViT used for *trained* experiments on synthetic data.

    The full-size configs above are exercised analytically (FLOPs, memory,
    device latency); this config keeps end-to-end training tractable on CPU
    while preserving every structural element the pruner touches.
    """
    return ViTConfig(image_size=image_size, patch_size=patch_size,
                     in_channels=in_channels, num_classes=num_classes,
                     depth=depth, embed_dim=embed_dim, num_heads=num_heads,
                     name="vit-tiny")


STANDARD_CONFIGS = {
    "vit-small": vit_small_config,
    "vit-base": vit_base_config,
    "vit-large": vit_large_config,
    "vit-tiny": vit_tiny_config,
}


def build_vit(name: str, rng: np.random.Generator | None = None,
              **overrides) -> VisionTransformer:
    """Build a ViT by standard-config name (``vit-small``/``base``/``large``/``tiny``)."""
    if name not in STANDARD_CONFIGS:
        raise KeyError(f"unknown ViT config {name!r}; choose from {sorted(STANDARD_CONFIGS)}")
    return VisionTransformer(STANDARD_CONFIGS[name](**overrides), rng=rng)
