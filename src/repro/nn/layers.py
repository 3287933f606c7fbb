"""Neural-network modules used to build the transformer encoders.

The module system mirrors the familiar PyTorch API closely enough that the
model code in :mod:`repro.plm` and :mod:`repro.core` reads naturally:
``Module`` tracks parameters and sub-modules recursively, supports
``state_dict`` / ``load_state_dict`` and a ``train()`` / ``eval()`` switch.

Inside :func:`skip_init` the layers allocate zero-filled weights instead of
drawing their random initialisation, for models whose every parameter is
about to be overwritten by ``load_state_dict`` (a serving bundle's load).
"""

from __future__ import annotations

import contextlib
import threading
from collections.abc import Iterable, Iterator

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor, get_dtype_policy, is_grad_enabled

__all__ = [
    "skip_init",
    "Parameter",
    "Module",
    "ModuleList",
    "Sequential",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "MultiHeadSelfAttention",
    "TransformerEncoderLayer",
]


# Thread-local like ``no_grad``'s grad mode: a thread loading a bundle must
# not hand zero weights to a model another thread is building for training.
class _InitMode(threading.local):
    skip = False


_INIT_MODE = _InitMode()


@contextlib.contextmanager
def skip_init():
    """Build modules with zero-filled weights and no random draws.

    ``Linear``, ``Embedding`` and ``MultiHeadSelfAttention`` constructed in
    the block take zero-filled weights and never call ``rng.normal``, so
    building a model costs little more than its allocations.  Use it only
    for a model that ``load_state_dict`` fills next; that call rejects a
    state dict missing any parameter, so no zero placeholder can reach a
    prediction.  Per-thread: a model built on another thread meanwhile
    draws its usual seeded weights.
    """
    previous = _INIT_MODE.skip
    _INIT_MODE.skip = True
    try:
        yield
    finally:
        _INIT_MODE.skip = previous


def _normal(rng: np.random.Generator, scale: float, shape: tuple[int, ...]) -> np.ndarray:
    """``rng.normal(0, scale, shape)``, or zeros (no draw) inside :func:`skip_init`."""
    if _INIT_MODE.skip:
        return np.zeros(shape, dtype=get_dtype_policy().compute)
    return rng.normal(0.0, scale, size=shape)


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module."""

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)


def _child_rng(rng: np.random.Generator) -> np.random.Generator:
    """An independent child stream that does not consume draws from ``rng``.

    Spawning keeps weight initialisation bitwise identical to code that does
    not create the child, while still giving every dropout its own stream.
    """
    try:
        return rng.spawn(1)[0]
    except (AttributeError, TypeError, ValueError):  # generator without a seed sequence
        return np.random.default_rng(int(rng.integers(0, 2**63)))


class Module:
    """Base class for all layers and models.

    Sub-classes assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are discovered automatically for parameter iteration and
    state-dict (de)serialisation.
    """

    def __init__(self) -> None:
        self.training = True

    # -- attribute discovery ------------------------------------------- #
    def _children(self) -> Iterator[tuple[str, Module]]:
        for key, value in vars(self).items():
            if isinstance(value, Module):
                yield key, value

    def _direct_parameters(self) -> Iterator[tuple[str, Parameter]]:
        for key, value in vars(self).items():
            if isinstance(value, Parameter):
                yield key, value

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs recursively."""
        for key, param in self._direct_parameters():
            yield (f"{prefix}{key}", param)
        for key, child in self._children():
            yield from child.named_parameters(prefix=f"{prefix}{key}.")

    def parameters(self) -> list[Parameter]:
        """Return all trainable parameters as a flat list."""
        return [param for _, param in self.named_parameters()]

    # -- training mode -------------------------------------------------- #
    def train(self, mode: bool = True) -> Module:
        """Set training mode recursively (affects dropout)."""
        self.training = mode
        for _, child in self._children():
            child.train(mode)
        return self

    def eval(self) -> Module:
        """Switch to evaluation mode (dropout disabled)."""
        return self.train(False)

    # -- gradients ------------------------------------------------------ #
    def zero_grad(self) -> None:
        """Clear the gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # -- dtype ----------------------------------------------------------- #
    def to(self, dtype) -> Module:
        """Cast every parameter to ``dtype`` in place (grads are dropped).

        The escape hatch out of the global dtype policy for a single model:
        ``model.to(np.float64)`` turns an existing float32 model into the
        float64 parity oracle without touching the policy, because op outputs
        inherit the dtype of their inputs.
        """
        resolved = np.dtype(dtype)
        if resolved not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(f"dtype must be float32 or float64, got {resolved}")
        for param in self.parameters():
            param.data = param.data.astype(resolved, copy=False)
            param.grad = None
        return self

    # -- state dict ------------------------------------------------------ #
    def state_dict(self, prefix: str = "") -> dict[str, np.ndarray]:
        """Return a flat mapping from parameter names to numpy arrays."""
        return {name: param.data.copy() for name, param in self.named_parameters(prefix)}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values from a mapping produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)!r}, "
                f"unexpected={sorted(unexpected)!r}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()

    # -- call protocol --------------------------------------------------- #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """A list of sub-modules that is properly registered for recursion."""

    def __init__(self, modules: Iterable[Module] = ()):
        super().__init__()
        self._modules: list[Module] = list(modules)
        for index, module in enumerate(self._modules):
            setattr(self, f"item_{index}", module)

    def append(self, module: Module) -> None:
        setattr(self, f"item_{len(self._modules)}", module)
        self._modules.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules)

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return self._modules[index]

    def forward(self, *args, **kwargs):  # pragma: no cover - containers are not called
        raise RuntimeError("ModuleList is a container and cannot be called")


class Sequential(Module):
    """Apply modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = ModuleList(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class Linear(Module):
    """Affine transformation ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / (in_features + out_features))
        self.weight = Parameter(_normal(rng, scale, (out_features, in_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self.in_features = in_features
        self.out_features = out_features

    @classmethod
    def _from_weights(cls, weight: np.ndarray, bias: np.ndarray | None = None) -> Linear:
        """Wrap pre-computed arrays without drawing an initialisation."""
        layer = cls.__new__(cls)
        Module.__init__(layer)
        layer.weight = Parameter(weight)
        layer.bias = Parameter(bias) if bias is not None else None
        layer.out_features, layer.in_features = layer.weight.data.shape
        return layer

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.weight = Parameter(_normal(rng, 0.02, (num_embeddings, embedding_dim)))
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if not is_grad_enabled():
            # Inference fast path: let the gather itself do the bounds check
            # instead of paying an O(n) min/max scan per lookup.  (Indices in
            # [-num_embeddings, -1] wrap like numpy's; the training path
            # below still rejects them with the friendly error.)
            try:
                return F.embedding_lookup(self.weight, indices)
            except IndexError as exc:
                raise IndexError(
                    f"embedding index out of range [0, {self.num_embeddings})"
                ) from exc
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        return F.embedding_lookup(self.weight, indices)


class LayerNorm(Module):
    """Layer normalisation over the last dimension with learnable scale/shift."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.weight = Parameter(np.ones(normalized_shape))
        self.bias = Parameter(np.zeros(normalized_shape))
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.1, seed: int = 0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self._rng)


class MultiHeadSelfAttention(Module):
    """Multi-head scaled dot-product self-attention with optional masking.

    Supports an additive attention bias (used by the DeBERTa-style relative
    position variant) and a padding mask of shape ``(batch, seq)``.

    Q, K and V are produced by a single packed ``(hidden, 3*hidden)``
    projection (one matmul instead of three); checkpoints saved with the
    older separate ``query``/``key``/``value`` layout are rejected by
    :meth:`Module.load_state_dict` as a state dict mismatch.
    The attention core runs through the fused
    :func:`~repro.nn.functional.scaled_dot_product_attention` node by
    default; setting :attr:`fused` to false selects the original chain of
    primitive ops, kept as a parity oracle.
    """

    def __init__(self, hidden_size: int, num_heads: int, dropout: float = 0.1,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if hidden_size % num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.num_heads = num_heads
        self.head_dim = hidden_size // num_heads
        self.fused = True
        # Draw the three projections exactly as the unpacked layout did (same
        # rng consumption, same per-projection fan-in/fan-out scale), then
        # pack them row-wise, so models seeded identically stay bitwise
        # identical to the previous layout.
        scale = np.sqrt(2.0 / (hidden_size + hidden_size))
        packed = np.concatenate(
            [_normal(rng, scale, (hidden_size, hidden_size)) for _ in range(3)],
            axis=0,
        )
        self.qkv = Linear._from_weights(packed, np.zeros(3 * hidden_size))
        self.output = Linear(hidden_size, hidden_size, rng=rng)
        self.attn_dropout = Dropout(dropout, rng=_child_rng(rng))

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _unfused_attention(
        self,
        q: Tensor,
        k: Tensor,
        v: Tensor,
        attention_mask: np.ndarray | None,
        attention_bias: Tensor | None,
    ) -> Tensor:
        """Reference attention core: the original chain of primitive ops."""
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / float(np.sqrt(self.head_dim)))
        if attention_bias is not None:
            scores = scores + attention_bias
        if attention_mask is not None:
            mask = np.asarray(attention_mask, dtype=bool)
            # mask: (batch, seq) with True = keep.  Broadcast to (batch, 1, 1, seq).
            blocked = ~mask[:, None, None, :]
            scores = F.masked_fill(scores, np.broadcast_to(blocked, scores.shape), -1e9)

        weights = F.softmax(scores, axis=-1)
        weights = self.attn_dropout(weights)
        return weights @ v

    def forward(
        self,
        x: Tensor,
        attention_mask: np.ndarray | None = None,
        attention_bias: Tensor | None = None,
    ) -> Tensor:
        batch, seq, _ = x.shape
        q_proj, k_proj, v_proj = self.qkv(x).chunk(3, axis=-1)
        q = self._split_heads(q_proj, batch, seq)
        k = self._split_heads(k_proj, batch, seq)
        v = self._split_heads(v_proj, batch, seq)

        if self.fused:
            context = F.scaled_dot_product_attention(
                q, k, v,
                attention_mask=attention_mask,
                attention_bias=attention_bias,
                dropout_p=self.attn_dropout.p,
                training=self.training,
                rng=self.attn_dropout._rng,
            )
        else:
            context = self._unfused_attention(q, k, v, attention_mask, attention_bias)
        context = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.hidden_size)
        return self.output(context)


class TransformerEncoderLayer(Module):
    """Post-norm transformer encoder block (as in the original BERT)."""

    def __init__(self, hidden_size: int, num_heads: int, intermediate_size: int,
                 dropout: float = 0.1, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.attention = MultiHeadSelfAttention(hidden_size, num_heads, dropout, rng=rng)
        self.attention_norm = LayerNorm(hidden_size)
        self.ffn_in = Linear(hidden_size, intermediate_size, rng=rng)
        self.ffn_out = Linear(intermediate_size, hidden_size, rng=rng)
        self.ffn_norm = LayerNorm(hidden_size)
        self.dropout = Dropout(dropout, rng=_child_rng(rng))

    def forward(
        self,
        x: Tensor,
        attention_mask: np.ndarray | None = None,
        attention_bias: Tensor | None = None,
    ) -> Tensor:
        attended = self.attention(x, attention_mask=attention_mask, attention_bias=attention_bias)
        x = self.attention_norm(x + self.dropout(attended))
        hidden = F.gelu(self.ffn_in(x))
        x = self.ffn_norm(x + self.dropout(self.ffn_out(hidden)))
        return x
