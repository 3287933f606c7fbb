"""A small numpy-based neural-network framework with reverse-mode autodiff.

This package replaces PyTorch for the purposes of the KGLink reproduction.  It
provides exactly what the paper's deep-learning component needs:

* :class:`~repro.nn.tensor.Tensor` — a define-by-run autograd tensor wrapping a
  numpy array.
* :class:`~repro.nn.tensor.DtypePolicy` — the global compute/accumulate dtype
  pair (float32 compute with float64 accumulation by default;
  :data:`~repro.nn.tensor.FLOAT64_POLICY` is the full-precision escape hatch).
* :mod:`~repro.nn.functional` — differentiable operations (softmax, gelu,
  layer norm, dropout, cross entropy, ...).
* :mod:`~repro.nn.layers` — ``Module`` and the standard layers used by the
  transformer encoders (``Linear``, ``Embedding``, ``LayerNorm``,
  ``MultiHeadSelfAttention``, ``TransformerEncoderLayer``) and ``skip_init``,
  which builds them without drawing weights a load will overwrite.
* :mod:`~repro.nn.optim` — ``AdamW`` with linear learning-rate decay, matching
  the optimiser settings in the paper's experimental section.
* :mod:`~repro.nn.losses` — cross entropy, the DMLM distillation loss and the
  uncertainty-weighted combined loss of Kendall et al. used by KGLink.
* :mod:`~repro.nn.serialization` — state-dict save/load helpers.
"""

from repro.nn.tensor import (
    Tensor,
    no_grad,
    is_grad_enabled,
    DtypePolicy,
    FLOAT32_POLICY,
    FLOAT64_POLICY,
    get_dtype_policy,
    set_dtype_policy,
    dtype_policy,
    accumulation_dtype,
    get_default_dtype,
)
from repro.nn import functional
from repro.nn.layers import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    MultiHeadSelfAttention,
    Parameter,
    Sequential,
    TransformerEncoderLayer,
    skip_init,
)
from repro.nn.losses import (
    CrossEntropyLoss,
    DMLMLoss,
    UncertaintyWeightedLoss,
)
from repro.nn.optim import SGD, AdamW, LinearDecaySchedule, ConstantSchedule
from repro.nn.serialization import checkpoint_metadata, load_state_dict, save_state_dict

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
    "functional",
    "Module",
    "ModuleList",
    "Sequential",
    "Parameter",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "MultiHeadSelfAttention",
    "TransformerEncoderLayer",
    "skip_init",
    "CrossEntropyLoss",
    "DMLMLoss",
    "UncertaintyWeightedLoss",
    "SGD",
    "AdamW",
    "LinearDecaySchedule",
    "ConstantSchedule",
    "save_state_dict",
    "load_state_dict",
    "checkpoint_metadata",
]
