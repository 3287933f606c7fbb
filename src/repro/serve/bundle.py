"""Self-contained on-disk bundles for serving trained KGLink systems.

A :class:`ServiceBundle` packages everything a serving process needs into one
directory with a versioned manifest::

    bundle/
      manifest.json   format version, pipeline config, label vocabulary,
                      tokenizer tokens, index record, linker config,
                      artifact sizes and SHA-256s
      model.npz       encoder + head weights (dtype-policy-stamped)
      index.npz       the *compiled* BM25 index arrays (CSR postings
                      offsets, doc ids and precomputed impacts)
      graph.json      the KG snapshot Part 1 queries (labels, schemas,
                      one-hop neighbourhoods with predicates)

The index is stored as one copy of the compiled arrays, which a serving
process restores as one in-process index.  The manifest's ``backend`` record
(``{"name": "bm25", "documents": n}``) keeps the shape older readers expect;
BM25 is the only engine, so any other name is a corrupt bundle.

A bundle is independent of the knowledge graph: loading restores the
BM25 index from its exported arrays instead of re-indexing the graph,
and ships a :class:`~repro.kg.snapshot.KGSnapshot` for the
candidate-extraction queries — so
:meth:`~repro.serve.service.AnnotationService.load` works on a machine that
has nothing but the bundle directory.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.annotator import KGLinkConfig
from repro.core.errors import BundleCorrupted
from repro.core.model import KGLinkModel
from repro.kg.backends import BM25Index, BM25Parameters
from repro.kg.linker import LinkerConfig
from repro.kg.snapshot import KGSnapshot
from repro.nn.serialization import load_state_dict, save_state_dict
from repro.plm.model import create_encoder
from repro.text.tokenizer import WordPieceTokenizer
from repro.text.vocab import Vocabulary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotator -> serve)
    from repro.core.annotator import KGLinkAnnotator

__all__ = [
    "BUNDLE_FORMAT_VERSION",
    "SUPPORTED_BUNDLE_FORMATS",
    "ServiceBundle",
    "tokenizer_from_tokens",
]

#: Format 3 added a shard plan (``shard_plan`` in the manifest plus
#: ``num_shards``/``executor`` linker-config keys).  Index sharding is gone:
#: saving no longer writes those keys and loading ignores them, since
#: sharding never changed an answer.  Format-2 bundles load unchanged.
BUNDLE_FORMAT_VERSION = 3
SUPPORTED_BUNDLE_FORMATS = (2, 3)

MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "model.npz"
INDEX_NAME = "index.npz"
GRAPH_NAME = "graph.json"
#: The ``backend`` name every bundle's index record carries.
INDEX_ENGINE = "bm25"

#: Every artifact the manifest's integrity record covers.
ARTIFACT_NAMES = (WEIGHTS_NAME, INDEX_NAME, GRAPH_NAME)

#: Manifest keys every supported format must carry (schema floor).
REQUIRED_MANIFEST_KEYS = (
    "format_version", "config", "label_vocabulary", "tokenizer_tokens",
    "backend", "linker_config",
)

#: Keys older writers put in the manifest that no longer mean anything.
LEGACY_MANIFEST_KEYS = ("shard_plan", "runtime_policy")
#: ``backend`` named the retrieval engine while more than one existed.
LEGACY_LINKER_KEYS = ("num_shards", "executor", "backend")
#: The size of a Part-1 cache the annotator no longer keeps.
LEGACY_CONFIG_KEYS = ("processed_cache_size",)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _read_manifest(directory: Path) -> dict:
    """Read + schema-check the manifest, typing every corruption it can hit."""
    path = directory / MANIFEST_NAME
    try:
        text = path.read_text()
    except OSError as error:
        raise BundleCorrupted(
            f"bundle at {directory} is missing or cannot read {MANIFEST_NAME}"
        ) from error
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as error:
        raise BundleCorrupted(
            f"{MANIFEST_NAME} in {directory} is not valid JSON "
            f"(line {error.lineno}: {error.msg})"
        ) from error
    if not isinstance(manifest, dict):
        raise BundleCorrupted(
            f"{MANIFEST_NAME} in {directory} must hold a JSON object, "
            f"found {type(manifest).__name__}"
        )
    missing = [key for key in REQUIRED_MANIFEST_KEYS if key not in manifest]
    if missing:
        raise BundleCorrupted(
            f"{MANIFEST_NAME} in {directory} is missing required "
            f"key(s): {', '.join(missing)}"
        )
    return manifest


def _manifest_field(directory: Path, manifest: dict, key: str, parse):
    """``parse(manifest[key])``, with any malformation typed as corruption."""
    try:
        return parse(manifest.get(key))
    except (TypeError, ValueError, KeyError, AttributeError) as error:
        raise BundleCorrupted(
            f"{MANIFEST_NAME} in {directory} has a malformed {key!r} field "
            f"({type(error).__name__}: {error})"
        ) from error


def _string_list(payload) -> list[str]:
    if not isinstance(payload, list) or not all(isinstance(v, str) for v in payload):
        raise TypeError("expected a list of strings")
    return list(payload)


def _object(payload) -> dict:
    if not isinstance(payload, dict):
        raise TypeError(f"expected an object, found {type(payload).__name__}")
    return payload


def _kglink_config(payload) -> KGLinkConfig:
    return KGLinkConfig(**{key: value for key, value in _object(payload).items()
                           if key not in LEGACY_CONFIG_KEYS})


def _check_engine(payload) -> None:
    name = _object(payload)["name"]
    if name != INDEX_ENGINE:
        raise ValueError(f"unknown retrieval engine {name!r} (only {INDEX_ENGINE!r})")


def _linker_config(payload) -> LinkerConfig:
    payload = {key: value for key, value in _object(payload).items()
               if key not in LEGACY_LINKER_KEYS}
    payload["bm25"] = BM25Parameters(**_object(payload["bm25"]))
    return LinkerConfig(**payload)


def _artifact_record(payload) -> dict[str, dict]:
    """The integrity record; absent (format 2) reads as empty."""
    record = _object({} if payload is None else payload)
    for entry in record.values():
        _object(entry)
    return record


def _verify_artifacts(directory: Path, recorded: dict[str, dict]) -> None:
    """Check artifact presence (always) and SHA-256 (when recorded at save).

    Runs *before* any array is parsed, so a truncated ``model.npz`` surfaces
    as :class:`BundleCorrupted` naming the file — not as whatever numpy
    raises mid-parse.  Format-2 bundles predate the integrity record and only
    get the existence check.
    """
    for name in ARTIFACT_NAMES:
        path = directory / name
        if not path.is_file():
            raise BundleCorrupted(f"bundle at {directory} is missing {name}")
        entry = recorded.get(name)
        if not entry:
            continue
        size = path.stat().st_size
        if "bytes" in entry and size != entry["bytes"]:
            raise BundleCorrupted(
                f"{name} in {directory} is {size} bytes, manifest recorded "
                f"{entry['bytes']} (truncated or overwritten)"
            )
        if "sha256" in entry and _sha256(path) != entry["sha256"]:
            raise BundleCorrupted(
                f"{name} in {directory} does not match its recorded SHA-256"
            )


def tokenizer_from_tokens(tokens: list[str]) -> WordPieceTokenizer:
    """Rebuild a tokenizer from a stored token list.

    The first tokens are the special tokens, which the Vocabulary
    constructor re-adds itself, so they are filtered before reconstruction.
    """
    specials = Vocabulary().specials
    special_tokens = set(specials.as_tuple())
    plain_tokens = [token for token in tokens if token not in special_tokens]
    return WordPieceTokenizer(Vocabulary(plain_tokens, specials=specials))


@dataclass
class ServiceBundle:
    """Everything a serving process needs, in memory or on disk."""

    config: KGLinkConfig
    label_vocabulary: list[str]
    tokenizer: WordPieceTokenizer
    model: KGLinkModel
    backend: BM25Index
    graph_view: KGSnapshot
    linker_config: LinkerConfig = field(default_factory=LinkerConfig)
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_annotator(cls, annotator: KGLinkAnnotator) -> ServiceBundle:
        """Capture a fitted annotator's serving state (no copies of weights)."""
        if annotator.model is None or annotator.tokenizer is None:
            raise RuntimeError("only fitted annotators can be bundled")
        backend = annotator.linker.index
        backend.finalize()
        return cls(
            config=annotator.config,
            label_vocabulary=list(annotator.label_vocabulary),
            tokenizer=annotator.tokenizer,
            model=annotator.model,
            backend=backend,
            graph_view=KGSnapshot.from_graph(annotator.graph),
            # The linker's own config, not a reconstruction from KGLinkConfig:
            # a custom linker (deeper retrieval, number/date linking on) must
            # serve exactly as it trained.
            linker_config=annotator.linker.config,
            metadata={"graph_entities": len(annotator.graph)},
        )

    # ------------------------------------------------------------------ #
    def save(self, directory: str | Path) -> Path:
        """Write the bundle to ``directory``; returns the directory path.

        Artifacts are written first so the manifest — written last — can
        record each one's byte size and SHA-256; :meth:`load` verifies that
        integrity record before parsing any array.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_state_dict(self.model.state_dict(), directory / WEIGHTS_NAME)
        np.savez_compressed(directory / INDEX_NAME, **self.backend.export_state())
        (directory / GRAPH_NAME).write_text(json.dumps(self.graph_view.to_payload()))
        manifest = {
            "format_version": BUNDLE_FORMAT_VERSION,
            "config": dataclasses.asdict(self.config),
            "label_vocabulary": self.label_vocabulary,
            "tokenizer_tokens": list(self.tokenizer.vocabulary),
            "backend": {"name": INDEX_ENGINE, "documents": len(self.backend)},
            "linker_config": dataclasses.asdict(self.linker_config),
            "artifacts": {
                name: {
                    "bytes": (directory / name).stat().st_size,
                    "sha256": _sha256(directory / name),
                }
                for name in ARTIFACT_NAMES
            },
            **self.metadata,
        }
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
        return directory

    @classmethod
    def load(cls, directory: str | Path) -> ServiceBundle:
        """Load a bundle; needs no graph and performs no index rebuild.

        Validation runs first: manifest schema, artifact presence, and the
        SHA-256 integrity record written by :meth:`save` are all checked
        before any array is parsed, and every corruption surfaces as
        :class:`~repro.core.errors.BundleCorrupted` naming the offending
        file or manifest field.  An unsupported-but-well-formed format still
        raises ``ValueError`` (a compatibility problem, not a corrupt bundle).

        The cyclic garbage collector is paused while the bundle is parsed:
        everything the load allocates stays alive, and a full collection
        landing inside it (which depends on what the process did before)
        added 40-120 ms to a 60-80 ms load of the kgbench bundle.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            return cls._load(directory)
        finally:
            if enabled:
                gc.enable()

    @classmethod
    def _load(cls, directory: str | Path) -> ServiceBundle:
        directory = Path(directory)
        manifest = _read_manifest(directory)
        version = manifest.get("format_version")
        if version not in SUPPORTED_BUNDLE_FORMATS:
            raise ValueError(
                f"unsupported bundle format {version!r} "
                f"(this build reads formats {SUPPORTED_BUNDLE_FORMATS})"
            )
        config = _manifest_field(directory, manifest, "config", _kglink_config)
        label_vocabulary = _manifest_field(directory, manifest, "label_vocabulary",
                                           _string_list)
        tokens = _manifest_field(directory, manifest, "tokenizer_tokens", _string_list)
        _manifest_field(directory, manifest, "backend", _check_engine)
        linker_config = _manifest_field(directory, manifest, "linker_config",
                                        _linker_config)
        recorded = _manifest_field(directory, manifest, "artifacts", _artifact_record)
        _verify_artifacts(directory, recorded)
        tokenizer = tokenizer_from_tokens(tokens)

        encoder = create_encoder(config.plm_config(vocab_size=tokenizer.vocab_size))
        model = KGLinkModel(
            encoder,
            num_labels=len(label_vocabulary),
            use_feature_vector=config.use_feature_vector,
            seed=config.seed,
        )
        try:
            model.load_state_dict(load_state_dict(directory / WEIGHTS_NAME))
        except BundleCorrupted:
            raise
        except Exception as error:  # noqa: BLE001 - name the file for operators
            raise BundleCorrupted(
                f"{WEIGHTS_NAME} in {directory} failed to parse: {error}"
            ) from error
        model.eval()

        try:
            with np.load(directory / INDEX_NAME) as archive:
                state = {key: archive[key] for key in archive.files}
        except Exception as error:  # noqa: BLE001 - name the file for operators
            raise BundleCorrupted(
                f"{INDEX_NAME} in {directory} failed to parse: {error}"
            ) from error
        try:
            backend = BM25Index.from_state(state)
        except (KeyError, TypeError, ValueError) as error:
            raise BundleCorrupted(
                f"{INDEX_NAME} in {directory} does not restore as a BM25 index: "
                f"{error}"
            ) from error

        try:
            graph_view = KGSnapshot.from_payload(
                json.loads((directory / GRAPH_NAME).read_text())
            )
        except Exception as error:  # noqa: BLE001 - name the file for operators
            raise BundleCorrupted(
                f"{GRAPH_NAME} in {directory} failed to parse: {error}"
            ) from error
        metadata = {
            key: value
            for key, value in manifest.items()
            if key not in (*REQUIRED_MANIFEST_KEYS, "artifacts",
                           *LEGACY_MANIFEST_KEYS)
        }
        return cls(
            config=config,
            label_vocabulary=label_vocabulary,
            tokenizer=tokenizer,
            model=model,
            backend=backend,
            graph_view=graph_view,
            linker_config=linker_config,
            metadata=metadata,
        )
