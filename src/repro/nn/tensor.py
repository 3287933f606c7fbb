"""Reverse-mode autodiff tensor built on numpy.

The design follows the classic define-by-run pattern: every operation builds a
node in an implicit computation graph by recording its parent tensors and a
closure that accumulates gradients into them.  Calling :meth:`Tensor.backward`
on a scalar (or with an explicit output gradient) runs a topological sort of
the graph and applies the closures in reverse order.

Under :func:`no_grad` (or when no input requires a gradient) operations take a
fast path that skips graph bookkeeping entirely — no backward closure is
created and no parent tuple is recorded — so inference passes allocate nothing
beyond the output arrays.

Only the operations needed by the transformer encoders and the KGLink training
objective are implemented, but they are implemented with full broadcasting
support so the layers read naturally.
"""

from __future__ import annotations

import contextlib
import threading
from collections.abc import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "DtypePolicy",
    "FLOAT32_POLICY",
    "FLOAT64_POLICY",
    "get_dtype_policy",
    "set_dtype_policy",
    "dtype_policy",
    "accumulation_dtype",
    "get_default_dtype",
]

# Switch mirroring ``torch.no_grad``: while disabled, operations do not
# record the computation graph, which makes inference cheap.  Thread-local
# (like torch's grad mode) so a serving thread running inference under
# ``no_grad`` cannot race a training thread's graph construction — with a
# process-wide flag, two overlapping ``no_grad`` blocks on different
# threads can interleave save/restore and leave gradients off for good.


class _GradMode(threading.local):
    enabled = True


_GRAD_MODE = _GradMode()

_ALLOWED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class DtypePolicy:
    """A pair of floating dtypes governing how the nn stack computes.

    ``compute`` is the dtype tensors are created with and elementwise work
    (matmuls, exp/tanh, activations) runs in; ``accumulate`` is the dtype
    long reductions are carried out in before being cast back to ``compute``.
    The numerically delicate reductions — softmax / log-sum-exp denominators,
    layer-norm moments, loss sums and Adam second moments — honour
    ``accumulate`` so the default ``float32``/``float64`` policy keeps the
    model within tolerance of a full-float64 run while doing the expensive
    elementwise work in float32.

    Instances are immutable; install one globally with
    :func:`set_dtype_policy` or temporarily with the :func:`dtype_policy`
    context manager.  :data:`FLOAT64_POLICY` is the escape hatch used by the
    parity oracles (everything in float64, the pre-policy behaviour).
    """

    __slots__ = ("compute", "accumulate")

    def __init__(self, compute="float32", accumulate="float64"):
        compute = np.dtype(compute)
        accumulate = np.dtype(accumulate)
        for role, resolved in (("compute", compute), ("accumulate", accumulate)):
            if resolved not in _ALLOWED_DTYPES:
                raise ValueError(
                    f"{role} dtype must be float32 or float64, got {resolved}"
                )
        if np.promote_types(compute, accumulate) != accumulate:
            raise ValueError(
                f"accumulate dtype {accumulate} must be at least as precise as "
                f"compute dtype {compute}"
            )
        object.__setattr__(self, "compute", compute)
        object.__setattr__(self, "accumulate", accumulate)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("DtypePolicy is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DtypePolicy)
            and self.compute == other.compute
            and self.accumulate == other.accumulate
        )

    def __hash__(self) -> int:
        return hash((self.compute, self.accumulate))

    def __repr__(self) -> str:
        return f"DtypePolicy(compute={self.compute}, accumulate={self.accumulate})"


#: Default policy: float32 elementwise work, float64 accumulation.
FLOAT32_POLICY = DtypePolicy(np.float32, np.float64)
#: Escape hatch for the parity oracles: everything in float64.
FLOAT64_POLICY = DtypePolicy(np.float64, np.float64)

_POLICY = FLOAT32_POLICY


def get_dtype_policy() -> DtypePolicy:
    """The policy new tensors and nn reductions currently follow."""
    return _POLICY


def set_dtype_policy(policy: DtypePolicy) -> DtypePolicy:
    """Install ``policy`` globally; returns the previous policy.

    Existing tensors are unaffected; only tensors created afterwards use the
    new compute dtype (op outputs inherit the dtype of their inputs, so a
    model built under one policy keeps running in it after a switch).
    """
    global _POLICY
    if not isinstance(policy, DtypePolicy):
        raise TypeError(f"expected a DtypePolicy, got {type(policy).__name__}")
    previous = _POLICY
    _POLICY = policy
    return previous


@contextlib.contextmanager
def dtype_policy(policy: DtypePolicy):
    """Temporarily install ``policy`` (e.g. ``FLOAT64_POLICY`` for oracles)."""
    previous = set_dtype_policy(policy)
    try:
        yield policy
    finally:
        set_dtype_policy(previous)


def accumulation_dtype(dtype) -> np.dtype:
    """Dtype reductions over arrays of ``dtype`` should accumulate in.

    Never narrower than the input dtype, so a float64 model accumulates in
    float64 even under a hypothetical all-float32 policy.
    """
    return np.promote_types(dtype, _POLICY.accumulate)


def is_grad_enabled() -> bool:
    """Return whether new operations record gradients in this thread."""
    return _GRAD_MODE.enabled


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode).

    The switch is per-thread: disabling gradients on a serving thread does
    not affect a concurrently training one.
    """
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def get_default_dtype() -> np.dtype:
    """The floating dtype new tensors are created with (= policy compute dtype)."""
    return _POLICY.compute


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` so that it matches ``shape`` (inverse of broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were size 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    compute = _POLICY.compute
    if isinstance(value, np.ndarray):
        return value if value.dtype == compute else value.astype(compute)
    return np.asarray(value, dtype=compute)


class Tensor:
    """A numpy-backed tensor that records operations for backpropagation.

    Parameters
    ----------
    data:
        Anything convertible to a numpy array of the default floating dtype
        (see :func:`set_dtype_policy`).
    requires_grad:
        When true, gradients flowing through operations involving this tensor
        are accumulated into :attr:`grad` during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data: np.ndarray = _as_array(data)
        self.requires_grad: bool = bool(requires_grad) and _GRAD_MODE.enabled
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _result(data: np.ndarray) -> Tensor:
        """Wrap an op result without dtype conversion.

        Outputs inherit their dtype from the numpy computation, so a float32
        model keeps producing float32 even after the global default is
        restored to float64.
        """
        out = Tensor.__new__(Tensor)
        out.data = data
        out.requires_grad = False
        out.grad = None
        out._backward = None
        out._parents = ()
        out.name = None
        return out

    def _ensure(self, other) -> Tensor:
        if isinstance(other, Tensor):
            return other
        # Scalar/array operands adopt this tensor's dtype (weak-scalar
        # semantics) instead of the global default.
        return Tensor._result(np.asarray(other, dtype=self.data.dtype))

    def _make_child(
        self,
        data: np.ndarray,
        parents: Sequence[Tensor],
        backward: Callable[[np.ndarray], None],
    ) -> Tensor:
        child = Tensor._result(data)
        # Call sites guard this already (to skip closure creation entirely on
        # the inference fast path); the re-check keeps the old contract — an
        # unguarded op loses only the fast path, never tracks grads wrongly.
        if _GRAD_MODE.enabled and any(p.requires_grad for p in parents):
            child.requires_grad = True
            child._parents = tuple(parents)
            child._backward = backward
        return child

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> Tensor:
        other = self._ensure(other)
        out_data = self.data + other.data
        if not (_GRAD_MODE.enabled and (self.requires_grad or other.requires_grad)):
            return Tensor._result(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.data.shape))
            other._accumulate(_unbroadcast(grad, other.data.shape))

        return self._make_child(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> Tensor:
        if not (_GRAD_MODE.enabled and self.requires_grad):
            return Tensor._result(-self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make_child(-self.data, (self,), backward)

    def __sub__(self, other) -> Tensor:
        return self + (-self._ensure(other))

    def __rsub__(self, other) -> Tensor:
        return self._ensure(other) + (-self)

    def __mul__(self, other) -> Tensor:
        other = self._ensure(other)
        out_data = self.data * other.data
        if not (_GRAD_MODE.enabled and (self.requires_grad or other.requires_grad)):
            return Tensor._result(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return self._make_child(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Tensor:
        other = self._ensure(other)
        out_data = self.data / other.data
        if not (_GRAD_MODE.enabled and (self.requires_grad or other.requires_grad)):
            return Tensor._result(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.data.shape))
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data**2), other.data.shape)
            )

        return self._make_child(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> Tensor:
        return self._ensure(other) / self

    def __pow__(self, exponent: float) -> Tensor:
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent
        if not (_GRAD_MODE.enabled and self.requires_grad):
            return Tensor._result(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make_child(out_data, (self,), backward)

    def __matmul__(self, other) -> Tensor:
        other = self._ensure(other)
        out_data = self.data @ other.data
        if not (_GRAD_MODE.enabled and (self.requires_grad or other.requires_grad)):
            return Tensor._result(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                grad_self = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(grad_self, self.data.shape))
            if other.requires_grad:
                grad_other = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(grad_other, other.data.shape))

        return self._make_child(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # reductions and shape manipulation
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> Tensor:
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        if not (_GRAD_MODE.enabled and self.requires_grad):
            return Tensor._result(out_data)

        def backward(grad: np.ndarray) -> None:
            grad_expanded = grad
            if axis is not None and not keepdims:
                grad_expanded = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad_expanded, self.data.shape).copy())

        return self._make_child(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> Tensor:
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> Tensor:
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        if not (_GRAD_MODE.enabled and self.requires_grad):
            return Tensor._result(out_data)

        def backward(grad: np.ndarray) -> None:
            grad_expanded = grad
            out_expanded = out_data
            if axis is not None and not keepdims:
                grad_expanded = np.expand_dims(grad, axis=axis)
                out_expanded = np.expand_dims(out_data, axis=axis)
            mask = (self.data == out_expanded).astype(self.data.dtype)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate(mask * grad_expanded)

        return self._make_child(out_data, (self,), backward)

    def reshape(self, *shape) -> Tensor:
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.data.shape
        out_data = self.data.reshape(shape)
        if not (_GRAD_MODE.enabled and self.requires_grad):
            return Tensor._result(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return self._make_child(out_data, (self,), backward)

    def transpose(self, *axes) -> Tensor:
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        out_data = self.data.transpose(axes)
        if not (_GRAD_MODE.enabled and self.requires_grad):
            return Tensor._result(out_data)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make_child(out_data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> Tensor:
        axes = list(range(self.data.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(tuple(axes))

    def chunk(self, chunks: int, axis: int = -1) -> list[Tensor]:
        """Split into ``chunks`` equal views along ``axis``.

        Cheaper than repeated ``__getitem__`` for the packed-QKV use case:
        each chunk's backward writes its slice into a zeros buffer directly
        instead of going through ``np.add.at`` with a fancy index.
        """
        axis = axis % self.data.ndim
        size = self.data.shape[axis]
        if size % chunks != 0:
            raise ValueError(f"axis of size {size} is not divisible into {chunks} chunks")
        step = size // chunks
        track = _GRAD_MODE.enabled and self.requires_grad
        outputs: list[Tensor] = []
        for start in range(0, size, step):
            index = [slice(None)] * self.data.ndim
            index[axis] = slice(start, start + step)
            index = tuple(index)
            piece = self.data[index]
            if not track:
                outputs.append(Tensor._result(piece))
                continue

            def backward(grad: np.ndarray, index=index) -> None:
                # Write the slice into the accumulator directly instead of
                # materialising a full-size zeros buffer per chunk.
                if not self.requires_grad:
                    return
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                self.grad[index] += grad

            outputs.append(self._make_child(piece, (self,), backward))
        return outputs

    def __getitem__(self, index) -> Tensor:
        out_data = self.data[index]
        if not (_GRAD_MODE.enabled and self.requires_grad):
            return Tensor._result(out_data)

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return self._make_child(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # elementwise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> Tensor:
        out_data = np.exp(self.data)
        if not (_GRAD_MODE.enabled and self.requires_grad):
            return Tensor._result(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return self._make_child(out_data, (self,), backward)

    def log(self) -> Tensor:
        out_data = np.log(self.data)
        if not (_GRAD_MODE.enabled and self.requires_grad):
            return Tensor._result(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._make_child(out_data, (self,), backward)

    def sqrt(self) -> Tensor:
        return self**0.5

    def tanh(self) -> Tensor:
        out_data = np.tanh(self.data)
        if not (_GRAD_MODE.enabled and self.requires_grad):
            return Tensor._result(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return self._make_child(out_data, (self,), backward)

    def relu(self) -> Tensor:
        if not (_GRAD_MODE.enabled and self.requires_grad):
            return Tensor._result(np.maximum(self.data, 0.0))
        mask = (self.data > 0).astype(self.data.dtype)
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make_child(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # graph traversal
    # ------------------------------------------------------------------ #
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.  When
            omitted the tensor must be a scalar and a gradient of one is used.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        ordering: list[Tensor] = []
        visited: set[int] = set()

        def visit(node: Tensor) -> None:
            stack = [(node, iter(node._parents))]
            visited.add(id(node))
            while stack:
                current, parents = stack[-1]
                advanced = False
                for parent in parents:
                    if id(parent) not in visited and parent.requires_grad:
                        visited.add(id(parent))
                        stack.append((parent, iter(parent._parents)))
                        advanced = True
                        break
                if not advanced:
                    ordering.append(current)
                    stack.pop()

        visit(self)

        self._accumulate(grad)
        for node in reversed(ordering):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(*shape, requires_grad: bool = False) -> Tensor:
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad: bool = False) -> Tensor:
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape, scale: float = 1.0, rng: np.random.Generator | None = None,
              requires_grad: bool = False) -> Tensor:
        if rng is None:
            # Deterministic by default: an unseeded generator here would make
            # weight init irreproducible run-to-run (REP105).
            rng = np.random.default_rng(0)
        return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=requires_grad)

    @staticmethod
    def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
        tensors = list(tensors)
        out_data = np.stack([t.data for t in tensors], axis=axis)
        child = Tensor._result(out_data)
        if not (_GRAD_MODE.enabled and any(t.requires_grad for t in tensors)):
            return child

        def backward(grad: np.ndarray) -> None:
            moved = np.moveaxis(grad, axis, 0)
            for tensor, piece in zip(tensors, moved, strict=True):
                tensor._accumulate(piece)

        child.requires_grad = True
        child._parents = tuple(tensors)
        child._backward = backward
        return child
