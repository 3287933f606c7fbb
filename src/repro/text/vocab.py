"""Vocabulary with BERT-style special tokens."""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator

__all__ = ["SpecialTokens", "Vocabulary"]


@dataclass(frozen=True)
class SpecialTokens:
    """The special tokens used by the MiniBERT encoder and the serialisers."""

    pad: str = "[PAD]"
    unk: str = "[UNK]"
    cls: str = "[CLS]"
    sep: str = "[SEP]"
    mask: str = "[MASK]"

    def as_tuple(self) -> tuple[str, ...]:
        return (self.pad, self.unk, self.cls, self.sep, self.mask)


class Vocabulary:
    """A bidirectional mapping between tokens and integer ids.

    Special tokens always occupy the lowest ids (``[PAD]`` is id 0) so padding
    and masking logic can rely on fixed positions.
    """

    def __init__(self, tokens: Iterable[str] = (), specials: SpecialTokens | None = None):
        self.specials = specials or SpecialTokens()
        self._token_to_id: dict[str, int] = {}
        self._id_to_token: list[str] = []
        for token in self.specials.as_tuple():
            self._add(token)
        for token in tokens:
            self._add(token)

    # ------------------------------------------------------------------ #
    def _add(self, token: str) -> int:
        if token not in self._token_to_id:
            self._token_to_id[token] = len(self._id_to_token)
            self._id_to_token.append(token)
        return self._token_to_id[token]

    def add_token(self, token: str) -> int:
        """Add ``token`` to the vocabulary (idempotent) and return its id."""
        return self._add(token)

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_token)

    # ------------------------------------------------------------------ #
    @property
    def pad_id(self) -> int:
        return self._token_to_id[self.specials.pad]

    @property
    def unk_id(self) -> int:
        return self._token_to_id[self.specials.unk]

    @property
    def cls_id(self) -> int:
        return self._token_to_id[self.specials.cls]

    @property
    def sep_id(self) -> int:
        return self._token_to_id[self.specials.sep]

    @property
    def mask_id(self) -> int:
        return self._token_to_id[self.specials.mask]

    def token_to_id(self, token: str) -> int:
        """Return the id of ``token``, falling back to ``[UNK]``."""
        return self._token_to_id.get(token, self.unk_id)

    def id_to_token(self, index: int) -> str:
        """Return the token string for ``index``."""
        return self._id_to_token[index]

    def encode(self, tokens: Iterable[str]) -> list[int]:
        """Map a token sequence to ids (unknowns become ``[UNK]``)."""
        return [self.token_to_id(token) for token in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        """Map an id sequence back to token strings."""
        return [self.id_to_token(index) for index in ids]
