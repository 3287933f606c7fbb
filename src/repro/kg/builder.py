"""Synthetic WikiData-style knowledge graph construction.

The paper's Part 1 relies on structural properties of WikiData:

* instance entities (people, films, cities, proteins, ...) carry an
  ``instance_of`` edge to a *coarse* type entity (e.g. every person is an
  instance of ``Human``);
* the *fine-grained* type the annotation task actually wants (``Cricketer``,
  ``Musician``, ``Film``...) appears in the **one-hop neighbourhood** of the
  instance — through ``occupation``, ``genre``, ``sport`` or similar edges —
  rather than in the ``instance_of`` type attribute;
* entities mentioned in the same table row tend to be connected (a player and
  their team, an album and its performer), which is what the overlapping
  score exploits.

:class:`SyntheticKGBuilder` constructs a world with exactly these properties.
The resulting :class:`KGWorld` also records, outside the graph, the literal
attributes (dates, populations, masses...) used by the dataset generators to
produce numeric and date context columns that cannot be linked to the KG.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.kg.graph import KnowledgeGraph, Predicates
from repro.text.ner import EntitySchema

__all__ = ["KGWorldConfig", "KGWorld", "SyntheticKGBuilder", "build_default_kg"]


# --------------------------------------------------------------------------- #
# name material
# --------------------------------------------------------------------------- #
GIVEN_NAMES = [
    "James", "Mary", "John", "Patricia", "Robert", "Jennifer", "Michael",
    "Linda", "William", "Elizabeth", "David", "Barbara", "Richard", "Susan",
    "Joseph", "Jessica", "Thomas", "Sarah", "Charles", "Karen", "Peter",
    "Nancy", "Daniel", "Lisa", "Matthew", "Betty", "Anthony", "Margaret",
    "Mark", "Sandra", "Donald", "Ashley", "Steven", "Kimberly", "Paul",
    "Emily", "Andrew", "Donna", "Joshua", "Michelle", "Kenneth", "Carol",
    "Kevin", "Amanda", "Brian", "Dorothy", "George", "Melissa", "Edward",
    "Deborah", "Ronald", "Stephanie", "Timothy", "Rebecca", "Jason", "Laura",
    "Jeffrey", "Sharon", "Ryan", "Cynthia", "Jacob", "Kathleen", "Gary",
    "Amy", "Nicholas", "Angela", "Eric", "Shirley", "Jonathan", "Anna",
    "Stephen", "Ruth", "Larry", "Brenda", "Justin", "Pamela", "Scott",
    "Nicole", "Brandon", "Katherine", "Benjamin", "Samantha", "Samuel",
    "Christine", "Gregory", "Emma", "Alexander", "Catherine", "Patrick",
    "Virginia", "Frank", "Rachel", "Raymond", "Carolyn", "Jack", "Janet",
    "Dennis", "Maria", "Jerry", "Heather", "Tyler", "Diane", "Aaron", "Olivia",
    "Wilfred", "Walter", "Liam", "Sophia", "Lucas", "Grace", "Harold", "Alice",
]

SURNAMES = [
    "Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller",
    "Davis", "Rodriguez", "Martinez", "Hernandez", "Lopez", "Gonzalez",
    "Wilson", "Anderson", "Thomas", "Taylor", "Moore", "Jackson", "Martin",
    "Lee", "Perez", "Thompson", "White", "Harris", "Sanchez", "Clark",
    "Ramirez", "Lewis", "Robinson", "Walker", "Young", "Allen", "King",
    "Wright", "Scott", "Torres", "Nguyen", "Hill", "Flores", "Green",
    "Adams", "Nelson", "Baker", "Hall", "Rivera", "Campbell", "Mitchell",
    "Carter", "Roberts", "Blackburn", "Birkett", "Birch", "Steele",
    "Westbrook", "Holloway", "Pemberton", "Ashworth", "Fairchild", "Whitaker",
    "Lockwood", "Harrington", "Stanton", "Mercer", "Chandler", "Donovan",
    "Ellington", "Falkner", "Granger", "Huxley", "Irving", "Jardine",
    "Kestrel", "Langford", "Mansfield", "Norwood", "Ormond", "Prescott",
    "Quimby", "Radcliffe", "Sinclair", "Thackeray", "Underhill", "Vance",
    "Wexford", "Yardley", "Abernathy", "Bancroft", "Carmichael", "Dunmore",
]

COUNTRY_NAMES = [
    "Australia", "Brazil", "Canada", "Denmark", "Egypt", "France", "Germany",
    "Hungary", "India", "Japan", "Kenya", "Luxembourg", "Mexico", "Norway",
    "Oman", "Portugal", "Qatar", "Romania", "Spain", "Thailand", "Uruguay",
    "Vietnam", "Wales", "Zambia", "Argentina", "Belgium", "Chile", "Estonia",
    "Finland", "Greece", "Ireland", "Jamaica", "Latvia", "Morocco",
    "Netherlands", "Peru", "Sweden", "Turkey", "Ukraine", "Zimbabwe",
]

CONTINENT_NAMES = ["Europe", "Asia", "Africa", "Oceania", "South America", "North America"]

CITY_STEMS = [
    "River", "Lake", "Stone", "Oak", "Maple", "Cedar", "Pine", "Ash", "Elm",
    "Birch", "Falcon", "Eagle", "Harbor", "Summer", "Winter", "Spring",
    "Autumn", "North", "South", "East", "West", "Silver", "Golden", "Iron",
    "Copper", "Crystal", "Misty", "Sunny", "Windy", "Rocky", "Green", "White",
    "Black", "Red", "Blue", "Grand", "Little", "Upper", "Lower", "New",
]
CITY_SUFFIXES = ["ton", "ville", "field", "burg", "ford", "haven", "port", "wood", "dale", "mouth"]

LANGUAGE_NAMES = [
    "English", "Spanish", "French", "German", "Portuguese", "Japanese",
    "Hindi", "Arabic", "Swahili", "Dutch", "Norwegian", "Greek", "Turkish",
    "Thai", "Vietnamese", "Romanian", "Hungarian", "Finnish", "Swedish",
    "Ukrainian",
]

CURRENCY_NAMES = [
    "Dollar", "Euro", "Yen", "Pound", "Franc", "Krone", "Peso", "Rupee",
    "Real", "Rand", "Dirham", "Baht", "Dong", "Leu", "Forint", "Krona",
    "Hryvnia", "Shilling", "Dinar", "Riyal",
]

SPORT_NAMES = [
    "Cricket", "Basketball", "Association football", "Tennis", "Baseball",
    "Ice hockey", "Rugby", "Volleyball", "Golf", "Swimming",
]

SPORT_POSITIONS = {
    "Cricket": ["Batsman", "Bowler", "Wicket-keeper", "All-rounder"],
    "Basketball": ["Point guard", "Shooting guard", "Small forward", "Power forward", "Center"],
    "Association football": ["Goalkeeper", "Defender", "Midfielder", "Forward", "Striker"],
    "Tennis": ["Singles specialist", "Doubles specialist"],
    "Baseball": ["Pitcher", "Catcher", "Shortstop", "Outfielder"],
    "Ice hockey": ["Goaltender", "Defenceman", "Winger", "Centre"],
    "Rugby": ["Fly-half", "Scrum-half", "Hooker", "Fullback"],
    "Volleyball": ["Setter", "Libero", "Outside hitter"],
    "Golf": ["Professional golfer"],
    "Swimming": ["Freestyle swimmer", "Butterfly swimmer"],
}

TEAM_MASCOTS = [
    "Tigers", "Lions", "Hawks", "Wolves", "Bears", "Eagles", "Sharks",
    "Panthers", "Falcons", "Dragons", "Knights", "Rovers", "Wanderers",
    "United", "Athletic", "Rangers", "Royals", "Titans", "Comets", "Storm",
]

MUSIC_GENRES = [
    "Rock music", "Jazz", "Classical music", "Hip hop", "Electronic music",
    "Folk music", "Blues", "Reggae", "Heavy metal", "Pop music", "Gothic metal",
    "Country music", "Soul music", "Punk rock", "Ambient music",
]

FILM_GENRES = [
    "Drama film", "Comedy film", "Action film", "Documentary film",
    "Science fiction film", "Horror film", "Romance film", "Thriller film",
    "Animated film", "Western film",
]

BOOK_GENRES = [
    "Mystery novel", "Historical novel", "Fantasy novel", "Biography",
    "Poetry collection", "Short story collection", "Travel literature",
]

INDUSTRY_NAMES = [
    "Software", "Banking", "Aerospace", "Pharmaceuticals", "Retail",
    "Telecommunications", "Automotive", "Energy", "Logistics", "Insurance",
]

ADJECTIVES = [
    "Silent", "Crimson", "Endless", "Broken", "Golden", "Hidden", "Burning",
    "Frozen", "Distant", "Electric", "Velvet", "Hollow", "Radiant", "Savage",
    "Gentle", "Midnight", "Scarlet", "Wandering", "Forgotten", "Rising",
]

NOUNS = [
    "Horizon", "Garden", "Empire", "Mirror", "Harvest", "Voyage", "Shadow",
    "Symphony", "River", "Promise", "Echo", "Lantern", "Compass", "Monarch",
    "Avalanche", "Fortress", "Meadow", "Oracle", "Tempest", "Carousel",
]

AMINO_PREFIXES = ["KL", "TP", "BR", "MY", "HS", "CD", "IL", "TN", "EG", "FG", "AK", "PX"]

OCCUPATION_SPORT = {
    "Cricketer": "Cricket",
    "Basketball player": "Basketball",
    "Footballer": "Association football",
    "Tennis player": "Tennis",
    "Baseball player": "Baseball",
    "Ice hockey player": "Ice hockey",
    "Rugby player": "Rugby",
    "Volleyball player": "Volleyball",
    "Golfer": "Golf",
    "Swimmer": "Swimming",
}

ARTIST_OCCUPATIONS = ["Musician", "Singer", "Composer", "Guitarist", "Pianist", "Drummer"]
OTHER_OCCUPATIONS = [
    "Actor", "Film director", "Politician", "Scientist", "Writer", "Poet",
    "Journalist", "Painter", "Chef", "Architect", "Engineer", "Historian",
    "Economist", "Photographer",
]


@dataclass(frozen=True)
class KGWorldConfig:
    """Sizes of the synthetic world.

    The defaults produce roughly 3.5k entities and 15k triples — enough for
    BM25 linking to be non-trivial (ambiguous surnames, shared team names)
    while keeping corpus generation and linking fast on CPU.
    """

    num_people: int = 700
    num_films: int = 160
    num_albums: int = 160
    num_songs: int = 120
    num_books: int = 120
    num_cities: int = 140
    num_teams: int = 90
    num_companies: int = 80
    num_universities: int = 50
    num_proteins: int = 90
    num_genes: int = 90
    num_rivers: int = 40
    num_mountains: int = 40
    num_stadiums: int = 60
    num_awards: int = 30
    num_record_labels: int = 25
    num_leagues: int = 20
    seed: int = 7

    def scaled(self, factor: float) -> KGWorldConfig:
        """Return a copy with every count multiplied by ``factor`` (min 5)."""
        values = {}
        for name, value in vars(self).items():
            if name == "seed":
                values[name] = value
            else:
                values[name] = max(5, int(round(value * factor)))
        return KGWorldConfig(**values)


@dataclass
class KGWorld:
    """The built world: graph plus registries used by the dataset generators."""

    graph: KnowledgeGraph
    config: KGWorldConfig
    # fine-grained semantic type label -> list of instance entity ids
    instances_by_type: dict[str, list[str]] = field(default_factory=dict)
    # entity id -> {attribute name: literal string value}
    literals: dict[str, dict[str, str]] = field(default_factory=dict)
    # type label -> type entity id
    type_entity_ids: dict[str, str] = field(default_factory=dict)

    def instances(self, type_label: str) -> list[str]:
        """Instance entity ids registered under a fine-grained type label."""
        return self.instances_by_type.get(type_label, [])

    def literal(self, entity_id: str, attribute: str, default: str = "") -> str:
        """A literal attribute value of an entity (dates, counts, masses...)."""
        return self.literals.get(entity_id, {}).get(attribute, default)


class SyntheticKGBuilder:
    """Builds the synthetic WikiData-like world."""

    def __init__(self, config: KGWorldConfig | None = None):
        self.config = config or KGWorldConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self.graph = KnowledgeGraph()
        self.world = KGWorld(graph=self.graph, config=self.config)
        self._id_counter = itertools.count(1)

    # ------------------------------------------------------------------ #
    # low-level helpers
    # ------------------------------------------------------------------ #
    def _next_id(self, prefix: str = "Q") -> str:
        return f"{prefix}{next(self._id_counter)}"

    def _choice(self, options: Sequence[str]) -> str:
        return str(options[int(self.rng.integers(0, len(options)))])

    def _add_type(self, label: str, description: str = "",
                  schema: EntitySchema = EntitySchema.OTHER) -> str:
        entity_id = self._next_id()
        self.graph.create_entity(
            entity_id, label, description=description, schema=schema, is_type=True
        )
        self.world.type_entity_ids[label] = entity_id
        return entity_id

    def _add_instance(
        self,
        label: str,
        type_label: str,
        aliases: Sequence[str] = (),
        description: str = "",
        schema: EntitySchema = EntitySchema.OTHER,
        register: bool = True,
    ) -> str:
        entity_id = self._next_id()
        self.graph.create_entity(
            entity_id, label, aliases=tuple(aliases), description=description, schema=schema
        )
        if register:
            self.world.instances_by_type.setdefault(type_label, []).append(entity_id)
        return entity_id

    def _set_literal(self, entity_id: str, attribute: str, value: str) -> None:
        self.world.literals.setdefault(entity_id, {})[attribute] = value

    def _type_id(self, label: str) -> str:
        return self.world.type_entity_ids[label]

    def _random_year(self, low: int = 1850, high: int = 2010) -> int:
        return int(self.rng.integers(low, high))

    def _random_date(self, low: int = 1850, high: int = 2010) -> str:
        year = self._random_year(low, high)
        month = int(self.rng.integers(1, 13))
        day = int(self.rng.integers(1, 29))
        return f"{year}-{month:02d}-{day:02d}"

    # ------------------------------------------------------------------ #
    # world construction
    # ------------------------------------------------------------------ #
    def build(self) -> KGWorld:
        """Construct the full world and return it."""
        self._build_type_entities()
        self._build_geography()
        self._build_sports_infrastructure()
        self._build_culture_infrastructure()
        self._build_organisations()
        self._build_people()
        self._build_creative_works()
        self._build_biology()
        return self.world

    # -- type entities --------------------------------------------------- #
    def _build_type_entities(self) -> None:
        coarse = [
            ("Human", "a person"),
            ("Athlete", "a sportsperson"),
            ("Creative work", "an artistic creation"),
            ("Organisation", "a structured group"),
            ("Geographical feature", "a feature of the earth"),
            ("Biological entity", "an entity studied by biology"),
        ]
        for label, description in coarse:
            schema = EntitySchema.PERSON if label == "Human" else EntitySchema.OTHER
            self._add_type(label, description, schema=schema)

        fine = (
            list(OCCUPATION_SPORT)
            + ARTIST_OCCUPATIONS
            + OTHER_OCCUPATIONS
            + [
                "Film", "Album", "Song", "Book", "Television series",
                "Scholarly article", "Video game",
                "City", "Country", "Capital city", "River", "Mountain",
                "Continent", "Language", "Currency",
                "Sports team", "Football club", "Cricket team", "Basketball team",
                "Company", "Airline", "University", "Museum", "Stadium",
                "Sports league", "Record label", "Award", "Sport",
                "Player position", "Music genre", "Film genre", "Literary genre",
                "Industry", "Protein", "Gene", "Enzyme", "Chemical compound",
                "Taxon", "Name",
            ]
        )
        for label in fine:
            if label not in self.world.type_entity_ids:
                self._add_type(label, description=f"the class of {label.lower()} entities")

        # Sub-class hierarchy reproducing the type-granularity structure.
        subclass_edges = [
            ("Cricketer", "Athlete"), ("Basketball player", "Athlete"),
            ("Footballer", "Athlete"), ("Tennis player", "Athlete"),
            ("Baseball player", "Athlete"), ("Ice hockey player", "Athlete"),
            ("Rugby player", "Athlete"), ("Volleyball player", "Athlete"),
            ("Golfer", "Athlete"), ("Swimmer", "Athlete"),
            ("Athlete", "Human"),
            ("Singer", "Musician"), ("Composer", "Musician"),
            ("Guitarist", "Musician"), ("Pianist", "Musician"),
            ("Drummer", "Musician"), ("Musician", "Human"),
            ("Actor", "Human"), ("Film director", "Human"),
            ("Politician", "Human"), ("Scientist", "Human"),
            ("Writer", "Human"), ("Poet", "Writer"), ("Journalist", "Writer"),
            ("Film", "Creative work"), ("Album", "Creative work"),
            ("Song", "Creative work"), ("Book", "Creative work"),
            ("Television series", "Creative work"),
            ("Football club", "Sports team"), ("Cricket team", "Sports team"),
            ("Basketball team", "Sports team"), ("Sports team", "Organisation"),
            ("Company", "Organisation"), ("Airline", "Company"),
            ("University", "Organisation"),
            ("Capital city", "City"), ("City", "Geographical feature"),
            ("River", "Geographical feature"), ("Mountain", "Geographical feature"),
            ("Enzyme", "Protein"), ("Protein", "Biological entity"),
            ("Gene", "Biological entity"),
        ]
        for child, parent in subclass_edges:
            self.graph.add_triple(
                self._type_id(child), Predicates.SUBCLASS_OF, self._type_id(parent)
            )

    # -- geography -------------------------------------------------------- #
    def _build_geography(self) -> None:
        self._continents: dict[str, str] = {}
        for name in CONTINENT_NAMES:
            eid = self._add_instance(name, "Continent", description="a continent")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Continent"))
            self._continents[name] = eid

        self._languages: dict[str, str] = {}
        for name in LANGUAGE_NAMES:
            eid = self._add_instance(f"{name} language", "Language", aliases=(name,),
                                     description="a natural language")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Language"))
            self._languages[name] = eid

        self._currencies: dict[str, str] = {}
        for index, name in enumerate(CURRENCY_NAMES):
            country_hint = COUNTRY_NAMES[index % len(COUNTRY_NAMES)]
            eid = self._add_instance(f"{country_hint} {name}", "Currency",
                                     description="a unit of currency")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Currency"))
            self._currencies[name] = eid

        self._countries: dict[str, str] = {}
        for name in COUNTRY_NAMES:
            eid = self._add_instance(name, "Country", description="a sovereign state")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Country"))
            continent = self._choice(CONTINENT_NAMES)
            self.graph.add_triple(eid, Predicates.PART_OF, self._continents[continent])
            language = self._choice(LANGUAGE_NAMES)
            self.graph.add_triple(eid, Predicates.LANGUAGE, self._languages[language])
            currency = self._choice(CURRENCY_NAMES)
            self.graph.add_triple(eid, Predicates.CURRENCY, self._currencies[currency])
            self._set_literal(eid, "population", str(int(self.rng.integers(500_000, 200_000_000))))
            self._set_literal(eid, "area_km2", str(int(self.rng.integers(10_000, 9_000_000))))
            self._countries[name] = eid

        self._cities: list[str] = []
        used_city_names: set[str] = set()
        for index in range(self.config.num_cities):
            for _ in range(20):
                name = f"{self._choice(CITY_STEMS)}{self._choice(CITY_SUFFIXES)}"
                if name not in used_city_names:
                    used_city_names.add(name)
                    break
            else:
                name = f"{self._choice(CITY_STEMS)}{self._choice(CITY_SUFFIXES)} {index}"
            country_name = self._choice(COUNTRY_NAMES)
            is_capital = index < len(COUNTRY_NAMES) and bool(self.rng.random() < 0.4)
            type_label = "Capital city" if is_capital else "City"
            eid = self._add_instance(name, type_label, description=f"a city in {country_name}")
            self.world.instances_by_type.setdefault("City", [])
            if type_label == "Capital city":
                # capitals are also usable wherever a city is needed
                self.world.instances_by_type["City"].append(eid)
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id(type_label))
            self.graph.add_triple(eid, Predicates.COUNTRY, self._countries[country_name])
            if is_capital:
                self.graph.add_triple(eid, Predicates.CAPITAL_OF, self._countries[country_name])
            self._set_literal(eid, "population", str(int(self.rng.integers(20_000, 15_000_000))))
            self._set_literal(eid, "elevation_m", str(int(self.rng.integers(0, 2500))))
            self._cities.append(eid)

        for index in range(self.config.num_rivers):
            name = f"{self._choice(CITY_STEMS)} River"
            eid = self._add_instance(f"{name} {index}" if name in used_city_names else name,
                                     "River", description="a river")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("River"))
            country_name = self._choice(COUNTRY_NAMES)
            self.graph.add_triple(eid, Predicates.COUNTRY, self._countries[country_name])
            self._set_literal(eid, "length_km", str(int(self.rng.integers(50, 6500))))

        for _index in range(self.config.num_mountains):
            name = f"Mount {self._choice(SURNAMES)}"
            eid = self._add_instance(name, "Mountain", description="a mountain",
                                     register=True)
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Mountain"))
            country_name = self._choice(COUNTRY_NAMES)
            self.graph.add_triple(eid, Predicates.COUNTRY, self._countries[country_name])
            self._set_literal(eid, "elevation_m", str(int(self.rng.integers(800, 8800))))

    # -- sports ------------------------------------------------------------ #
    def _build_sports_infrastructure(self) -> None:
        self._sports: dict[str, str] = {}
        for name in SPORT_NAMES:
            eid = self._add_instance(name, "Sport", description="a sport")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Sport"))
            self._sports[name] = eid

        self._positions: dict[str, list[str]] = {}
        for sport, positions in SPORT_POSITIONS.items():
            self._positions[sport] = []
            for position in positions:
                eid = self._add_instance(position, "Player position",
                                         description=f"a position in {sport.lower()}")
                self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Player position"))
                self.graph.add_triple(eid, Predicates.PART_OF, self._sports[sport])
                self._positions[sport].append(eid)

        self._leagues: dict[str, list[str]] = {name: [] for name in SPORT_NAMES}
        for _index in range(self.config.num_leagues):
            sport = self._choice(SPORT_NAMES)
            name = f"{self._choice(ADJECTIVES)} {sport} League"
            eid = self._add_instance(name, "Sports league", description="a sports league")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Sports league"))
            self.graph.add_triple(eid, Predicates.SPORT, self._sports[sport])
            self._leagues[sport].append(eid)

        self._stadiums: list[str] = []
        for _index in range(self.config.num_stadiums):
            city_id = self._choice(self._cities)
            city_label = self.graph.entity(city_id).label
            name = f"{city_label} {self._choice(['Arena', 'Stadium', 'Park', 'Oval'])}"
            eid = self._add_instance(name, "Stadium", description=f"a stadium in {city_label}")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Stadium"))
            self.graph.add_triple(eid, Predicates.LOCATED_IN, city_id)
            self._set_literal(eid, "capacity", str(int(self.rng.integers(5_000, 95_000))))
            self._stadiums.append(eid)

        sport_team_type = {
            "Cricket": "Cricket team",
            "Basketball": "Basketball team",
            "Association football": "Football club",
        }
        self._teams_by_sport: dict[str, list[str]] = {name: [] for name in SPORT_NAMES}
        used_team_names: set[str] = set()
        for _index in range(self.config.num_teams):
            sport = self._choice(SPORT_NAMES)
            city_id = self._choice(self._cities)
            city_label = self.graph.entity(city_id).label
            for _ in range(20):
                name = f"{city_label} {self._choice(TEAM_MASCOTS)}"
                if name not in used_team_names:
                    break
            used_team_names.add(name)
            type_label = sport_team_type.get(sport, "Sports team")
            eid = self._add_instance(name, type_label,
                                     description=f"a {sport.lower()} team from {city_label}")
            self.world.instances_by_type.setdefault("Sports team", [])
            if type_label != "Sports team":
                self.world.instances_by_type["Sports team"].append(eid)
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id(type_label))
            self.graph.add_triple(eid, Predicates.SPORT, self._sports[sport])
            self.graph.add_triple(eid, Predicates.LOCATED_IN, city_id)
            if self._stadiums:
                self.graph.add_triple(eid, Predicates.HOME_VENUE, self._choice(self._stadiums))
            if self._leagues[sport]:
                self.graph.add_triple(eid, Predicates.LEAGUE, self._choice(self._leagues[sport]))
            self._set_literal(eid, "founded", str(self._random_year(1870, 1995)))
            self._teams_by_sport[sport].append(eid)

    # -- culture ------------------------------------------------------------ #
    def _build_culture_infrastructure(self) -> None:
        self._music_genres: dict[str, str] = {}
        for name in MUSIC_GENRES:
            eid = self._add_instance(name, "Music genre", description="a genre of music")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Music genre"))
            self._music_genres[name] = eid

        self._film_genres: dict[str, str] = {}
        for name in FILM_GENRES:
            eid = self._add_instance(name, "Film genre", description="a genre of film")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Film genre"))
            self._film_genres[name] = eid

        self._book_genres: dict[str, str] = {}
        for name in BOOK_GENRES:
            eid = self._add_instance(name, "Literary genre", description="a literary genre")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Literary genre"))
            self._book_genres[name] = eid

        self._record_labels: list[str] = []
        for index in range(self.config.num_record_labels):
            name = f"{self._choice(ADJECTIVES)} {self._choice(['Records', 'Sound', 'Music'])}"
            eid = self._add_instance(f"{name}" if index == 0 else f"{name}",
                                     "Record label", description="a record label")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Record label"))
            self._record_labels.append(eid)

        self._awards: list[str] = []
        for _index in range(self.config.num_awards):
            name = f"{self._choice(ADJECTIVES)} {self._choice(['Award', 'Prize', 'Medal'])}"
            eid = self._add_instance(name, "Award", description="an award")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Award"))
            self._awards.append(eid)

    # -- organisations ------------------------------------------------------ #
    def _build_organisations(self) -> None:
        self._industries: dict[str, str] = {}
        for name in INDUSTRY_NAMES:
            eid = self._add_instance(f"{name} industry", "Industry", aliases=(name,),
                                     description="an industry sector")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Industry"))
            self._industries[name] = eid

        self._companies: list[str] = []
        for _index in range(self.config.num_companies):
            industry = self._choice(INDUSTRY_NAMES)
            name = f"{self._choice(SURNAMES)} {industry} {self._choice(['Inc', 'Group', 'Corporation', 'Ltd'])}"
            type_label = "Airline" if industry == "Aerospace" and self.rng.random() < 0.3 else "Company"
            eid = self._add_instance(name, type_label, description=f"a {industry.lower()} company")
            self.world.instances_by_type.setdefault("Company", [])
            if type_label == "Airline":
                self.world.instances_by_type["Company"].append(eid)
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id(type_label))
            self.graph.add_triple(eid, Predicates.INDUSTRY, self._industries[industry])
            self.graph.add_triple(eid, Predicates.HEADQUARTERS, self._choice(self._cities))
            self._set_literal(eid, "founded", str(self._random_year(1900, 2015)))
            self._set_literal(eid, "revenue_musd", str(int(self.rng.integers(10, 90_000))))
            self._companies.append(eid)

        self._universities: list[str] = []
        for _index in range(self.config.num_universities):
            city_id = self._choice(self._cities)
            city_label = self.graph.entity(city_id).label
            name = f"University of {city_label}"
            if any(self.graph.entity(u).label == name for u in self._universities):
                name = f"{city_label} Technical University"
            eid = self._add_instance(name, "University", description="a university")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("University"))
            self.graph.add_triple(eid, Predicates.LOCATED_IN, city_id)
            self._set_literal(eid, "established", str(self._random_year(1500, 1990)))
            self._set_literal(eid, "students", str(int(self.rng.integers(2_000, 60_000))))
            self._universities.append(eid)

    # -- people -------------------------------------------------------------- #
    def _build_people(self) -> None:
        human_type = self._type_id("Human")
        occupations = (
            list(OCCUPATION_SPORT) * 3      # athletes are over-represented, as in SemTab
            + ARTIST_OCCUPATIONS * 2
            + OTHER_OCCUPATIONS
        )
        self._people: list[str] = []
        self._people_by_occupation: dict[str, list[str]] = {}
        used_names: set[str] = set()
        for _index in range(self.config.num_people):
            given = self._choice(GIVEN_NAMES)
            surname = self._choice(SURNAMES)
            name = f"{given} {surname}"
            if name in used_names:
                name = f"{given} {self._choice(SURNAMES[:40])} {surname}"
            used_names.add(name)
            occupation = self._choice(occupations)
            abbreviated = f"{given[0]}. {surname}"
            eid = self._add_instance(
                name, occupation, aliases=(abbreviated,),
                description=f"a {occupation.lower()}", schema=EntitySchema.PERSON,
            )
            self.world.instances_by_type.setdefault("Human", []).append(eid)
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, human_type)
            self.graph.add_triple(eid, Predicates.OCCUPATION, self._type_id(occupation))
            country = self._choice(COUNTRY_NAMES)
            self.graph.add_triple(eid, Predicates.CITIZENSHIP, self._countries[country])
            birth = self._random_date(1860, 1998)
            self._set_literal(eid, "birth_date", birth)
            if self.rng.random() < 0.45:
                death_year = min(int(birth[:4]) + int(self.rng.integers(25, 90)), 2020)
                self._set_literal(eid, "death_date",
                                  f"{death_year}-{int(self.rng.integers(1, 13)):02d}-"
                                  f"{int(self.rng.integers(1, 29)):02d}")
            self._set_literal(eid, "height_cm", str(int(self.rng.integers(150, 210))))
            self._set_literal(eid, "weight_kg", str(int(self.rng.integers(48, 120))))

            if occupation in OCCUPATION_SPORT:
                sport = OCCUPATION_SPORT[occupation]
                self.graph.add_triple(eid, Predicates.SPORT, self._sports[sport])
                teams = self._teams_by_sport.get(sport) or sum(self._teams_by_sport.values(), [])
                if teams:
                    self.graph.add_triple(eid, Predicates.MEMBER_OF, self._choice(teams))
                positions = self._positions.get(sport)
                if positions:
                    self.graph.add_triple(eid, Predicates.POSITION, self._choice(positions))
                self._set_literal(eid, "career_points", str(int(self.rng.integers(10, 30_000))))
            elif occupation in ARTIST_OCCUPATIONS:
                genre = self._choice(MUSIC_GENRES)
                self.graph.add_triple(eid, Predicates.GENRE, self._music_genres[genre])
                if self._record_labels:
                    self.graph.add_triple(eid, Predicates.RECORD_LABEL,
                                          self._choice(self._record_labels))
            elif occupation in ("Scientist", "Writer", "Poet", "Journalist", "Historian",
                                "Economist"):
                if self._universities:
                    self.graph.add_triple(eid, Predicates.EDUCATED_AT,
                                          self._choice(self._universities))
            if self.rng.random() < 0.2 and self._awards:
                self.graph.add_triple(eid, Predicates.AWARD_RECEIVED, self._choice(self._awards))

            self._people.append(eid)
            self._people_by_occupation.setdefault(occupation, []).append(eid)

    # -- creative works ------------------------------------------------------ #
    def _build_creative_works(self) -> None:
        directors = self._people_by_occupation.get("Film director", []) or self._people
        actors = self._people_by_occupation.get("Actor", []) or self._people
        musicians = [
            eid for occupation in ARTIST_OCCUPATIONS
            for eid in self._people_by_occupation.get(occupation, [])
        ] or self._people
        writers = (
            self._people_by_occupation.get("Writer", [])
            + self._people_by_occupation.get("Poet", [])
        ) or self._people

        used_titles: set[str] = set()

        def fresh_title(template: str) -> str:
            for _ in range(30):
                title = template.format(adj=self._choice(ADJECTIVES), noun=self._choice(NOUNS))
                if title not in used_titles:
                    used_titles.add(title)
                    return title
            title = f"{template.format(adj=self._choice(ADJECTIVES), noun=self._choice(NOUNS))} {len(used_titles)}"
            used_titles.add(title)
            return title

        for _index in range(self.config.num_films):
            title = fresh_title("The {adj} {noun}")
            eid = self._add_instance(title, "Film", description="a feature film")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Film"))
            self.graph.add_triple(eid, Predicates.DIRECTOR, self._choice(directors))
            for _ in range(int(self.rng.integers(1, 4))):
                self.graph.add_triple(eid, Predicates.CAST_MEMBER, self._choice(actors))
            genre = self._choice(FILM_GENRES)
            self.graph.add_triple(eid, Predicates.GENRE, self._film_genres[genre])
            self._set_literal(eid, "publication_year", str(self._random_year(1930, 2020)))
            self._set_literal(eid, "duration_min", str(int(self.rng.integers(70, 200))))

        for _index in range(self.config.num_albums):
            title = fresh_title("{adj} {noun}")
            eid = self._add_instance(title, "Album", description="a studio album")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Album"))
            self.graph.add_triple(eid, Predicates.PERFORMER, self._choice(musicians))
            genre = self._choice(MUSIC_GENRES)
            self.graph.add_triple(eid, Predicates.GENRE, self._music_genres[genre])
            if self._record_labels:
                self.graph.add_triple(eid, Predicates.RECORD_LABEL, self._choice(self._record_labels))
            self._set_literal(eid, "publication_year", str(self._random_year(1955, 2020)))
            self._set_literal(eid, "tracks", str(int(self.rng.integers(6, 20))))

        for _index in range(self.config.num_songs):
            title = fresh_title("{noun} of the {adj}")
            eid = self._add_instance(title, "Song", description="a song")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Song"))
            self.graph.add_triple(eid, Predicates.PERFORMER, self._choice(musicians))
            genre = self._choice(MUSIC_GENRES)
            self.graph.add_triple(eid, Predicates.GENRE, self._music_genres[genre])
            self._set_literal(eid, "duration_s", str(int(self.rng.integers(120, 420))))

        for _index in range(self.config.num_books):
            title = fresh_title("A {adj} {noun}")
            eid = self._add_instance(title, "Book", description="a book")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Book"))
            self.graph.add_triple(eid, Predicates.AUTHOR, self._choice(writers))
            genre = self._choice(BOOK_GENRES)
            self.graph.add_triple(eid, Predicates.GENRE, self._book_genres[genre])
            self._set_literal(eid, "publication_year", str(self._random_year(1800, 2020)))
            self._set_literal(eid, "pages", str(int(self.rng.integers(90, 900))))

    # -- biology -------------------------------------------------------------- #
    def _build_biology(self) -> None:
        taxa = []
        for name in ["Homo sapiens", "Mus musculus", "Danio rerio", "Drosophila melanogaster",
                     "Saccharomyces cerevisiae", "Arabidopsis thaliana"]:
            eid = self._add_instance(name, "Taxon", description="a biological species")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Taxon"))
            taxa.append(eid)

        functions = []
        for name in ["DNA binding", "ATP binding", "catalytic activity", "signal transduction",
                     "transport activity", "structural molecule activity"]:
            eid = self._add_instance(name, "Molecular function",
                                     description="a molecular function")
            functions.append(eid)

        genes: list[str] = []
        used_codes: set[str] = set()
        for _index in range(self.config.num_genes):
            for _ in range(30):
                code = f"{self._choice(AMINO_PREFIXES)}{int(self.rng.integers(1, 99))}"
                if code not in used_codes:
                    used_codes.add(code)
                    break
            eid = self._add_instance(code, "Gene", description="a gene")
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id("Gene"))
            self.graph.add_triple(eid, Predicates.FOUND_IN_TAXON, self._choice(taxa))
            genes.append(eid)

        for index in range(self.config.num_proteins):
            gene_id = genes[index % len(genes)]
            gene_label = self.graph.entity(gene_id).label
            is_enzyme = bool(self.rng.random() < 0.35)
            type_label = "Enzyme" if is_enzyme else "Protein"
            suffix = "synthase" if is_enzyme else "protein"
            name = f"{gene_label} {suffix}"
            eid = self._add_instance(name, type_label, aliases=(gene_label,),
                                     description=f"a {type_label.lower()} encoded by {gene_label}")
            self.world.instances_by_type.setdefault("Protein", [])
            if type_label == "Enzyme":
                self.world.instances_by_type["Protein"].append(eid)
            self.graph.add_triple(eid, Predicates.INSTANCE_OF, self._type_id(type_label))
            self.graph.add_triple(eid, Predicates.ENCODED_BY, gene_id)
            self.graph.add_triple(eid, Predicates.FOUND_IN_TAXON, self._choice(taxa))
            self.graph.add_triple(eid, Predicates.MOLECULAR_FUNCTION, self._choice(functions))
            self._set_literal(eid, "mass_kda", f"{float(self.rng.uniform(8, 250)):.1f}")


def build_default_kg(config: KGWorldConfig | None = None) -> KGWorld:
    """Build the default synthetic world (convenience entry point)."""
    return SyntheticKGBuilder(config).build()
