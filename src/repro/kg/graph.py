"""In-memory property-graph triple store modelled after WikiData.

Entities carry a label, optional aliases and a description, plus a coarse
named-entity schema category (used by Part 1's label-based filter).  Triples
connect entities through named predicates; the graph exposes the one-hop
neighbourhood queries the KGLink candidate-type extraction needs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from collections.abc import Iterable, Iterator

from repro.text.ner import EntitySchema

__all__ = ["Entity", "Triple", "Predicates", "KnowledgeGraph"]


class Predicates:
    """Well-known predicate names used throughout the synthetic world.

    These mirror frequently used WikiData properties: ``P31`` (instance of),
    ``P279`` (subclass of), ``P106`` (occupation) and so on.
    """

    INSTANCE_OF = "instance_of"
    SUBCLASS_OF = "subclass_of"
    OCCUPATION = "occupation"
    MEMBER_OF = "member_of_sports_team"
    POSITION = "position_played"
    CITIZENSHIP = "country_of_citizenship"
    SPORT = "sport"
    GENRE = "genre"
    PERFORMER = "performer"
    DIRECTOR = "director"
    AUTHOR = "author"
    CAST_MEMBER = "cast_member"
    LOCATED_IN = "located_in"
    COUNTRY = "country"
    CAPITAL_OF = "capital_of"
    ENCODED_BY = "encoded_by"
    FOUND_IN_TAXON = "found_in_taxon"
    PART_OF = "part_of"
    INDUSTRY = "industry"
    HEADQUARTERS = "headquarters_location"
    EDUCATED_AT = "educated_at"
    AWARD_RECEIVED = "award_received"
    LANGUAGE = "official_language"
    CURRENCY = "currency_used"
    HOME_VENUE = "home_venue"
    LEAGUE = "league"
    RECORD_LABEL = "record_label"
    NOTABLE_WORK = "notable_work"
    FIELD_OF_WORK = "field_of_work"
    MOLECULAR_FUNCTION = "molecular_function"


@dataclass(frozen=True)
class Entity:
    """A node of the knowledge graph."""

    entity_id: str
    label: str
    aliases: tuple[str, ...] = ()
    description: str = ""
    schema: EntitySchema = EntitySchema.OTHER
    is_type: bool = False

    def document_text(self) -> str:
        """The text indexed by BM25 for this entity."""
        parts = [self.label, *self.aliases, self.description]
        return " ".join(part for part in parts if part)


@dataclass(frozen=True)
class Triple:
    """A directed, predicate-labelled edge ``subject --predicate--> object``."""

    subject: str
    predicate: str
    object: str


class KnowledgeGraph:
    """Entity and triple store with one-hop neighbourhood queries."""

    def __init__(self) -> None:
        self._entities: dict[str, Entity] = {}
        self._triples: list[Triple] = []
        self._outgoing: dict[str, list[Triple]] = defaultdict(list)
        self._incoming: dict[str, list[Triple]] = defaultdict(list)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_entity(self, entity: Entity) -> Entity:
        """Register an entity; adding the same id twice raises ``ValueError``."""
        if entity.entity_id in self._entities:
            raise ValueError(f"entity {entity.entity_id!r} already exists")
        self._entities[entity.entity_id] = entity
        return entity

    def create_entity(
        self,
        entity_id: str,
        label: str,
        aliases: Iterable[str] = (),
        description: str = "",
        schema: EntitySchema = EntitySchema.OTHER,
        is_type: bool = False,
    ) -> Entity:
        """Convenience wrapper building and adding an :class:`Entity`."""
        entity = Entity(
            entity_id=entity_id,
            label=label,
            aliases=tuple(aliases),
            description=description,
            schema=schema,
            is_type=is_type,
        )
        return self.add_entity(entity)

    def add_triple(self, subject: str, predicate: str, obj: str) -> Triple:
        """Add a triple between two existing entities."""
        if subject not in self._entities:
            raise KeyError(f"unknown subject entity {subject!r}")
        if obj not in self._entities:
            raise KeyError(f"unknown object entity {obj!r}")
        triple = Triple(subject, predicate, obj)
        self._triples.append(triple)
        self._outgoing[subject].append(triple)
        self._incoming[obj].append(triple)
        return triple

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._entities

    def __len__(self) -> int:
        return len(self._entities)

    def entity(self, entity_id: str) -> Entity:
        """Return the entity with ``entity_id`` (raises ``KeyError`` if absent)."""
        return self._entities[entity_id]

    def entities(self) -> Iterator[Entity]:
        """Iterate over all entities."""
        return iter(self._entities.values())

    def triples(self) -> Iterator[Triple]:
        """Iterate over all triples."""
        return iter(self._triples)

    def type_entities(self) -> list[Entity]:
        """All entities flagged as type entities (potential column types)."""
        return [entity for entity in self._entities.values() if entity.is_type]

    # ------------------------------------------------------------------ #
    # neighbourhoods
    # ------------------------------------------------------------------ #
    def outgoing(self, entity_id: str) -> list[Triple]:
        """Triples whose subject is ``entity_id``."""
        return list(self._outgoing.get(entity_id, ()))

    def incoming(self, entity_id: str) -> list[Triple]:
        """Triples whose object is ``entity_id``."""
        return list(self._incoming.get(entity_id, ()))

    def one_hop_neighbors(self, entity_id: str, include_incoming: bool = True) -> set[str]:
        """The set of entity ids reachable in one hop (both directions by default).

        This is the ``N(e)`` of the paper (Eq. 3, 6, 8, 9): candidate type
        entities such as *Cricketer* typically appear as objects of
        ``occupation`` edges, i.e. in the outgoing neighbourhood of person
        entities, while albums point at their performer through incoming
        edges.
        """
        neighbors: set[str] = {t.object for t in self._outgoing.get(entity_id, ())}
        if include_incoming:
            neighbors.update(t.subject for t in self._incoming.get(entity_id, ()))
        neighbors.discard(entity_id)
        return neighbors

    def neighborhood_with_predicates(self, entity_id: str) -> list[tuple[str, str]]:
        """Return ``(predicate, neighbor_id)`` pairs used to build feature sequences."""
        pairs = [(t.predicate, t.object) for t in self._outgoing.get(entity_id, ())]
        pairs.extend((t.predicate, t.subject) for t in self._incoming.get(entity_id, ()))
        return pairs

    def types_of(self, entity_id: str) -> set[str]:
        """Entity ids connected through ``instance_of`` (the KG type attribute)."""
        return {
            t.object
            for t in self._outgoing.get(entity_id, ())
            if t.predicate == Predicates.INSTANCE_OF
        }

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def describe(self) -> dict[str, int]:
        """Summary statistics used by documentation and sanity tests."""
        return {
            "entities": len(self._entities),
            "type_entities": len(self.type_entities()),
            "triples": len(self._triples),
            "predicates": len({t.predicate for t in self._triples}),
        }
