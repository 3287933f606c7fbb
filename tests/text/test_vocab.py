"""Tests of the vocabulary and special-token handling."""

from __future__ import annotations

import pytest

from repro.text.vocab import SpecialTokens, Vocabulary


class TestSpecialTokens:
    def test_default_tuple_order(self):
        tokens = SpecialTokens()
        assert tokens.as_tuple() == ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SpecialTokens().pad = "[X]"


class TestVocabulary:
    def test_specials_get_lowest_ids(self):
        vocab = Vocabulary(["apple", "banana"])
        assert vocab.pad_id == 0
        assert vocab.unk_id == 1
        assert vocab.cls_id == 2
        assert vocab.sep_id == 3
        assert vocab.mask_id == 4

    def test_add_token_idempotent(self):
        vocab = Vocabulary()
        first = vocab.add_token("word")
        second = vocab.add_token("word")
        assert first == second
        assert len(vocab) == 6

    def test_contains_and_iteration(self):
        vocab = Vocabulary(["x", "y"])
        assert "x" in vocab and "z" not in vocab
        assert set(vocab) >= {"x", "y", "[PAD]"}

    def test_unknown_token_maps_to_unk(self):
        vocab = Vocabulary(["known"])
        assert vocab.token_to_id("unknown") == vocab.unk_id

    def test_encode_decode_roundtrip(self):
        vocab = Vocabulary(["hello", "world"])
        ids = vocab.encode(["hello", "world"])
        assert vocab.decode(ids) == ["hello", "world"]

    def test_duplicate_initial_tokens_collapse(self):
        vocab = Vocabulary(["a", "a", "b"])
        assert len(vocab) == 5 + 2

    def test_id_to_token_out_of_range(self):
        with pytest.raises(IndexError):
            Vocabulary().id_to_token(100)

