"""Save and load model weights as stored (uncompressed) ``.npz`` archives.

Float weights barely deflate (7% on a trained KGLink model) while inflating
them on every load is most of the read, so archives are written stored.
:func:`load_state_dict` reads stored and deflated archives alike, so
checkpoints written compressed by earlier versions still load.

Checkpoints record the dtype policy they were written under in a reserved
``__repro_meta__.*`` namespace (array names cannot collide with parameter
names, which never start with a double underscore).  On load the metadata is
stripped from the returned state dict and the arrays can be cast:

* :func:`load_state_dict` returns the arrays as saved by default, or cast to
  an explicit dtype / the active policy's compute dtype on request;
* :meth:`~repro.nn.layers.Module.load_state_dict` always casts to each
  parameter's own dtype, so a float64 checkpoint loads into a float32 model
  (and vice versa) without any caller-side conversion.

Checkpoints written before the metadata existed still load: a missing
``__repro_meta__`` namespace marks a legacy archive, which is treated as
float64 (the only dtype the stack produced back then).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.nn.tensor import get_dtype_policy

__all__ = [
    "save_state_dict",
    "load_state_dict",
    "checkpoint_metadata",
]

_META_PREFIX = "__repro_meta__."
#: Dtype assumed for archives written before metadata was recorded.
_LEGACY_DTYPE = "float64"


def _resolve(path: str | os.PathLike) -> Path:
    path = Path(path)
    if not path.exists() and path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def save_state_dict(state: dict[str, np.ndarray], path: str | os.PathLike) -> Path:
    """Write a state dict to ``path`` (``.npz``); return the resolved path.

    The active dtype policy is recorded alongside the arrays so future loads
    know what the checkpoint was trained in.
    """
    for key in state:
        if key.startswith(_META_PREFIX):
            raise ValueError(f"state dict keys must not use the reserved prefix: {key!r}")
    policy = get_dtype_policy()
    floats = [value.dtype for value in state.values() if np.issubdtype(value.dtype, np.floating)]
    # The dominant parameter dtype is what load-time casting cares about; fall
    # back to the policy for (pathological) all-integer state dicts.
    compute = str(max(set(floats), key=floats.count)) if floats else str(policy.compute)
    meta = {
        f"{_META_PREFIX}compute_dtype": np.asarray(compute),
        f"{_META_PREFIX}accumulate_dtype": np.asarray(str(policy.accumulate)),
        f"{_META_PREFIX}format_version": np.asarray(1),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **state, **meta)
    # numpy appends .npz if it is missing; normalise the returned path.
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def checkpoint_metadata(path: str | os.PathLike) -> dict[str, str | int]:
    """Metadata recorded in a checkpoint (dtype policy, format version).

    Legacy archives without metadata report ``format_version`` 0 and the
    float64 dtypes the stack used at the time.
    """
    with np.load(_resolve(path)) as archive:
        meta = {
            key[len(_META_PREFIX):]: archive[key][()]
            for key in archive.files
            if key.startswith(_META_PREFIX)
        }
    if not meta:
        return {
            "compute_dtype": _LEGACY_DTYPE,
            "accumulate_dtype": _LEGACY_DTYPE,
            "format_version": 0,
        }
    return {
        "compute_dtype": str(meta.get("compute_dtype", _LEGACY_DTYPE)),
        "accumulate_dtype": str(meta.get("accumulate_dtype", _LEGACY_DTYPE)),
        "format_version": int(meta.get("format_version", 0)),
    }


def load_state_dict(path: str | os.PathLike, cast=None) -> dict[str, np.ndarray]:
    """Read a state dict previously written by :func:`save_state_dict`.

    Parameters
    ----------
    path:
        Archive location (``.npz`` suffix optional, as for saving).
    cast:
        ``None`` returns the floating arrays in their stored dtype; the string
        ``"policy"`` casts them to the active policy's compute dtype; any
        numpy dtype casts to that dtype.  Integer arrays are never cast.
    """
    with np.load(_resolve(path)) as archive:
        state = {
            key: archive[key]
            for key in archive.files
            if not key.startswith(_META_PREFIX)
        }
    if cast is None:
        return state
    target = get_dtype_policy().compute if cast == "policy" else np.dtype(cast)
    return {
        key: value.astype(target) if np.issubdtype(value.dtype, np.floating) else value
        for key, value in state.items()
    }
