"""A WordPiece-style sub-word tokenizer.

The real BERT tokenizer splits text into words and then greedily matches the
longest sub-word prefixes found in its vocabulary, emitting ``##``-prefixed
continuation pieces.  This implementation does the same, with a vocabulary
learned from the synthetic corpus instead of loaded from a released BERT
checkpoint.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Sequence

from repro.text.vocab import SpecialTokens, Vocabulary

__all__ = ["basic_tokenize", "WordPieceTokenizer"]

_WORD_RE = re.compile(r"[a-z0-9]+|[^\sa-z0-9]")

# Bound (entries) of a tokenizer's word -> token-ids memo; a full memo is
# cleared and refilled.
_WORD_MEMO_SIZE = 16_384


def basic_tokenize(text: str) -> list[str]:
    """Lower-case and split text into words and isolated punctuation marks."""
    return _WORD_RE.findall(text.lower())


class WordPieceTokenizer:
    """Greedy longest-match-first sub-word tokenizer.

    Parameters
    ----------
    vocabulary:
        Vocabulary holding both whole words and ``##`` continuation pieces.
    max_word_chars:
        Words longer than this are mapped directly to ``[UNK]``.
    """

    def __init__(self, vocabulary: Vocabulary, max_word_chars: int = 32):
        self.vocabulary = vocabulary
        self.max_word_chars = max_word_chars
        # word -> token ids, valid for the (vocabulary, size, max_word_chars)
        # it was filled under; add_token is public, so encode checks the stamp.
        self._word_ids: dict[str, tuple[int, ...]] = {}
        self._word_ids_stamp: tuple = ()

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    @classmethod
    def train(
        cls,
        texts: Iterable[str],
        vocab_size: int = 4000,
        min_frequency: int = 2,
        specials: SpecialTokens | None = None,
    ) -> WordPieceTokenizer:
        """Learn a sub-word vocabulary from raw texts.

        Whole words above ``min_frequency`` are added first (most frequent
        first); remaining budget is filled with character-level pieces and
        frequent prefixes/suffixes so rare words can still be segmented.
        """
        word_counts: Counter[str] = Counter()
        for text in texts:
            word_counts.update(basic_tokenize(text))

        specials = specials or SpecialTokens()
        budget = vocab_size - len(specials.as_tuple())
        tokens: list[str] = []
        seen: set[str] = set()

        def push(token: str) -> None:
            if token not in seen and len(tokens) < budget:
                seen.add(token)
                tokens.append(token)

        # Character pieces first: they guarantee every word can be segmented
        # without falling back to [UNK].
        char_counts: Counter[str] = Counter()
        for word, count in word_counts.items():
            for index, char in enumerate(word):
                piece = char if index == 0 else f"##{char}"
                char_counts[piece] += count
        for piece, _ in char_counts.most_common():
            push(piece)

        # Then whole words by frequency.
        for word, count in word_counts.most_common():
            if count < min_frequency:
                break
            push(word)

        # Then frequent sub-word prefixes (length 3..6) as continuations.
        affix_counts: Counter[str] = Counter()
        for word, count in word_counts.items():
            for length in range(3, min(len(word), 7)):
                affix_counts[word[:length]] += count
                affix_counts[f"##{word[-length:]}"] += count
        for piece, count in affix_counts.most_common():
            if count < min_frequency:
                break
            push(piece)

        return cls(Vocabulary(tokens, specials=specials))

    # ------------------------------------------------------------------ #
    # tokenisation
    # ------------------------------------------------------------------ #
    def _split_word(self, word: str) -> list[str]:
        if len(word) > self.max_word_chars:
            return [self.vocabulary.specials.unk]
        pieces: list[str] = []
        start = 0
        while start < len(word):
            end = len(word)
            piece = None
            while end > start:
                candidate = word[start:end]
                if start > 0:
                    candidate = f"##{candidate}"
                if candidate in self.vocabulary:
                    piece = candidate
                    break
                end -= 1
            if piece is None:
                return [self.vocabulary.specials.unk]
            pieces.append(piece)
            start = end
        return pieces

    def tokenize(self, text: str) -> list[str]:
        """Split ``text`` into sub-word pieces."""
        pieces: list[str] = []
        for word in basic_tokenize(text):
            pieces.extend(self._split_word(word))
        return pieces

    def encode(self, text: str, max_length: int | None = None) -> list[int]:
        """Tokenise and convert to ids, optionally truncating to ``max_length``.

        Equal to ``vocabulary.encode(tokenize(text))[:max_length]``, with
        each word's ids memoised.
        """
        vocabulary = self.vocabulary
        stamp = (vocabulary, len(vocabulary), self.max_word_chars)
        memo = self._word_ids
        if stamp != self._word_ids_stamp:
            memo.clear()
            self._word_ids_stamp = stamp
        ids: list[int] = []
        for word in basic_tokenize(text):
            word_ids = memo.get(word)
            if word_ids is None:
                if len(memo) >= _WORD_MEMO_SIZE:
                    memo.clear()
                word_ids = memo[word] = tuple(vocabulary.encode(self._split_word(word)))
            ids.extend(word_ids)
        if max_length is not None:
            ids = ids[:max_length]
        return ids

    def decode(self, ids: Sequence[int]) -> str:
        """Convert ids back to a readable string (merging ## continuations)."""
        words: list[str] = []
        for token in self.vocabulary.decode(ids):
            if token in self.vocabulary.specials.as_tuple():
                continue
            if token.startswith("##") and words:
                words[-1] += token[2:]
            else:
                words.append(token)
        return " ".join(words)

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)
