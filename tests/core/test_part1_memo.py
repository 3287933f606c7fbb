"""The memoised Part-1 and WordPiece paths against their unmemoised oracles.

``KGCandidateExtractor`` memoises per-entity type-filtered neighbourhoods,
per-cell neighbourhood unions and per-mention schemas, and
``WordPieceTokenizer.encode`` memoises per-word token ids.  The oracles below
are the implementations those memos replaced, kept here (as the unfused
attention chain is kept next to the fused kernel) so every memoised result is
checked against a direct computation over the same graph and vocabulary.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import pipeline
from repro.core.pipeline import CellLinkage, KGCandidateExtractor, Part1Config
from repro.data.table import Column, Table
from repro.text import tokenizer as tokenizer_module
from repro.text.ner import _NUMBER_RE, EntitySchema, detect_schema, is_date_mention
from repro.text.ner import is_numeric_mention, is_person_mention
from repro.text.tokenizer import WordPieceTokenizer


# --------------------------------------------------------------------------- #
# oracles: the unmemoised implementations
# --------------------------------------------------------------------------- #
def oracle_overlap_filter(graph, linked: list[list[CellLinkage]]) -> None:
    """Step 2 (Eq. 3, 4, 6) with neighbourhood unions rebuilt for every cell."""
    for row in linked:
        column_neighborhoods: list[set[str]] = []
        for cell in row:
            neighborhood: set[str] = set()
            for link in cell.raw_links:
                neighborhood.update(graph.one_hop_neighbors(link.entity_id))
            column_neighborhoods.append(neighborhood)
        for col_index, cell in enumerate(row):
            if not cell.raw_links:
                cell.candidate_entities = {}
                cell.linking_score = 0.0
                continue
            other_neighborhoods = [
                column_neighborhoods[other]
                for other in range(len(row))
                if other != col_index
            ]
            scores_by_entity: dict[str, float] = {}
            best_pruned_score = 0.0
            for link in cell.raw_links:
                overlap = sum(
                    1 for neighborhood in other_neighborhoods
                    if link.entity_id in neighborhood
                )
                if overlap > 0:
                    scores_by_entity[link.entity_id] = float(overlap)
                    best_pruned_score = max(best_pruned_score, link.score)
            if scores_by_entity:
                cell.candidate_entities = scores_by_entity
                cell.linking_score = best_pruned_score
            else:
                cell.candidate_entities = {link.entity_id: 0.0 for link in cell.raw_links}
                cell.linking_score = 0.0


def oracle_column_candidate_types(graph, linked, kept_rows, col_index) -> dict[str, float]:
    """Step 3 (Eq. 7-8) filtering PERSON/DATE neighbours on every visit."""
    scores: dict[str, float] = {}
    rows_supporting: dict[str, set[int]] = {}
    for row_index in kept_rows:
        cell = linked[row_index][col_index]
        for entity_id, overlap_score in cell.candidate_entities.items():
            if overlap_score <= 0.0:
                continue
            for neighbor_id in graph.one_hop_neighbors(entity_id):
                neighbor = graph.entity(neighbor_id)
                if neighbor.schema in (EntitySchema.PERSON, EntitySchema.DATE):
                    continue
                scores[neighbor_id] = scores.get(neighbor_id, 0.0) + overlap_score
                rows_supporting.setdefault(neighbor_id, set()).add(row_index)
    multi_row = {
        entity_id: score
        for entity_id, score in scores.items()
        if len(rows_supporting[entity_id]) > 1
    }
    return multi_row or scores


def oracle_detect_schema(mention) -> EntitySchema:
    """``detect_schema`` with its former, unreachable third date check."""
    if mention is None or not str(mention).strip():
        return EntitySchema.OTHER
    mention = str(mention)
    if is_date_mention(mention) and not _NUMBER_RE.match(mention):
        return EntitySchema.DATE
    if is_numeric_mention(mention):
        return EntitySchema.NUMBER
    if is_date_mention(mention):
        return EntitySchema.DATE
    if is_person_mention(mention):
        return EntitySchema.PERSON
    return EntitySchema.OTHER


# --------------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tables(semtab_corpus, viznet_corpus):
    return list(semtab_corpus.tables) + list(viznet_corpus.tables)


def fresh_extractor(graph, linker) -> KGCandidateExtractor:
    return KGCandidateExtractor(graph, Part1Config(top_k_rows=5), linker=linker)


# --------------------------------------------------------------------------- #
# Part 1
# --------------------------------------------------------------------------- #
class TestPart1Oracles:
    def test_overlap_filter_matches_oracle(self, graph, linker, tables):
        extractor = fresh_extractor(graph, linker)
        for table in tables:
            memoised = extractor.link_table(table)
            direct = extractor.link_table(table)
            extractor.apply_overlap_filter(memoised)
            oracle_overlap_filter(graph, direct)
            for got_row, want_row in zip(memoised, direct, strict=True):
                for got, want in zip(got_row, want_row, strict=True):
                    assert got.candidate_entities == want.candidate_entities
                    assert got.linking_score == want.linking_score

    def test_candidate_types_match_oracle(self, graph, linker, tables):
        extractor = fresh_extractor(graph, linker)
        checked = 0
        for table in tables:
            linked = extractor.link_table(table)
            extractor.apply_overlap_filter(linked)
            kept = extractor.select_rows(table, extractor.row_linking_scores(linked))
            for col_index in range(table.n_columns):
                got = extractor._column_candidate_types(linked, kept, col_index)
                want = oracle_column_candidate_types(graph, linked, kept, col_index)
                assert got == want
                checked += bool(want)
        assert checked > 0

    def test_warm_extractor_equals_fresh_one(self, graph, linker, tables):
        warm = fresh_extractor(graph, linker)
        warm.process_corpus(tables)  # fill every memo
        for table in tables:
            assert warm.process_table(table) == fresh_extractor(graph, linker).process_table(
                table
            )

    def test_schema_memo_matches_detect_schema(self, graph, linker, tables):
        extractor = fresh_extractor(graph, linker)
        for table in tables:
            for row in extractor.link_table(table):
                for cell in row:
                    assert cell.schema is detect_schema(cell.mention)

    @pytest.mark.parametrize("cells", [
        ["", ""],
        ["  ", "\t"],
        ["", "1,234", "  "],
        ["1,234", "12%", "3.5"],
        ["12%", "1888-11-24"],
        ["1987", "2001"],
        ["24 Nov 1888", "1888-11-24"],
        ["1,234", "abc"],
        ["James Smith", "42"],
    ])
    def test_derived_is_numeric_equals_column_is_numeric(self, graph, linker, cells):
        other = ["x"] * len(cells)
        table = Table(table_id="numeric-probe", columns=[
            Column(name="probe", cells=cells), Column(name="other", cells=other)])
        processed = fresh_extractor(graph, linker).process_table(table)
        for info, column in zip(processed.columns, table.columns, strict=True):
            assert info.is_numeric == column.is_numeric()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(["", " ", "1,234", "12%", "7", "-3.5", "1888-11-24",
                                     "1987", "24 Nov 1888", "Riverton", "James Smith"]),
                    min_size=1, max_size=5))
    def test_derived_is_numeric_property(self, graph, linker, cells):
        table = Table(table_id="numeric-property", columns=[Column(name="c", cells=cells)])
        info = fresh_extractor(graph, linker).process_table(table).columns[0]
        assert info.is_numeric == table.columns[0].is_numeric()

    def test_memos_stay_within_their_bounds(self, graph, linker, tables, monkeypatch):
        bounds = {"_NEIGHBOR_MEMO_SIZE": 7, "_UNION_MEMO_SIZE": 5, "_SCHEMA_MEMO_SIZE": 11}
        for name, bound in bounds.items():
            monkeypatch.setattr(pipeline, name, bound)
        tight = fresh_extractor(graph, linker)
        memos = {
            "_NEIGHBOR_MEMO_SIZE": (tight._neighbor_cache, tight._type_neighbor_cache),
            "_UNION_MEMO_SIZE": (tight._union_cache,),
            "_SCHEMA_MEMO_SIZE": (tight._schema_cache,),
        }
        for table in tables:
            processed = tight.process_table(table)
            for name, owned in memos.items():
                assert all(len(memo) <= bounds[name] for memo in owned), name
            # Clearing a full memo never changes an answer.
            assert processed == fresh_extractor(graph, linker).process_table(table)
        assert all(memo for owned in memos.values() for memo in owned)


# --------------------------------------------------------------------------- #
# named-entity schema
# --------------------------------------------------------------------------- #
_MENTION_PIECES = st.sampled_from([
    "1", "12", "1987", "2001", ",", ".", "-", "/", "%", " ", "+", "234", "3",
    "Nov", "jan", "24", "James", "Smith", "W.", "Blackburn", "x", "0",
])


class TestDetectSchemaOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_MENTION_PIECES, max_size=6).map("".join))
    def test_matches_three_branch_oracle_on_composed_mentions(self, mention):
        assert detect_schema(mention) == oracle_detect_schema(mention)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="0123456789 ,.-/%+:abcNovJS", max_size=14))
    def test_matches_three_branch_oracle_on_text(self, mention):
        assert detect_schema(mention) == oracle_detect_schema(mention)


# --------------------------------------------------------------------------- #
# WordPiece
# --------------------------------------------------------------------------- #
_TEXTS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789 ,.-é", max_size=80)
_MAX_LENGTHS = st.one_of(st.none(), st.integers(min_value=-3, max_value=24))


def oracle_encode(tokenizer: WordPieceTokenizer, text: str, max_length: int | None):
    ids = tokenizer.vocabulary.encode(tokenizer.tokenize(text))
    return ids if max_length is None else ids[:max_length]


class TestWordIdMemo:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(_TEXTS, _MAX_LENGTHS), min_size=1, max_size=6))
    def test_encode_equals_unmemoised_encode(self, tokenizer, calls):
        for text, max_length in calls:
            assert tokenizer.encode(text, max_length) == oracle_encode(
                tokenizer, text, max_length)

    @settings(max_examples=60, deadline=None)
    @given(_TEXTS, _MAX_LENGTHS, st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1,
                                         max_size=10))
    def test_add_token_on_a_warm_memo(self, text, max_length, new_word):
        tokenizer = WordPieceTokenizer.train(
            ["the riverton cricket club", "gothic metal riverton band"], vocab_size=60
        )
        text = f"{text} {new_word}"
        tokenizer.encode(text, max_length)  # warm the memo
        tokenizer.vocabulary.add_token(new_word)
        assert tokenizer.encode(text, max_length) == oracle_encode(tokenizer, text, max_length)

    def test_memo_stays_within_its_bound(self, tokenizer, monkeypatch):
        monkeypatch.setattr(tokenizer_module, "_WORD_MEMO_SIZE", 4)
        local = WordPieceTokenizer(tokenizer.vocabulary)
        text = "riverton cricket club gothic metal band peter steele stonefield"
        for start in range(len(text.split())):
            words = " ".join(text.split()[start:])
            assert local.encode(words) == oracle_encode(local, words, None)
            assert 0 < len(local._word_ids) <= 4
