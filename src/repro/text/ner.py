"""Rule-based named-entity schema detection.

The paper uses spaCy for two decisions only:

1. During KG linking, cell mentions recognised as **numbers or dates** are not
   linked (their linking score is set to zero).
2. During candidate-type generation, candidate type entities recognised as
   **PERSON or DATE** are excluded, because such entities do not describe a
   column type well.

This module provides the equivalent coarse schema detection with regular
expressions and a small curated first-name lexicon, which is sufficient for
the synthetic corpora.
"""

from __future__ import annotations

import re
from enum import Enum

__all__ = [
    "EntitySchema",
    "detect_schema",
    "is_numeric_mention",
    "is_date_mention",
    "is_person_mention",
]


class EntitySchema(str, Enum):
    """Coarse named-entity schema categories used by the KG filters."""

    NUMBER = "NUMBER"
    DATE = "DATE"
    PERSON = "PERSON"
    OTHER = "OTHER"


_NUMBER_RE = re.compile(
    r"""^[\s]*[-+]?(
        \d{1,3}(,\d{3})+(\.\d+)?   # 1,234,567.89
        | \d+\.\d+                 # 3.14
        | \.\d+                    # .5
        | \d+                      # 42
    )\s*%?\s*$""",
    re.VERBOSE,
)

_DATE_PATTERNS = [
    re.compile(r"^\s*\d{4}[-/\.]\d{1,2}[-/\.]\d{1,2}\s*$"),          # 1888-11-24
    re.compile(r"^\s*\d{1,2}[-/\.]\d{1,2}[-/\.]\d{2,4}\s*$"),        # 24/11/1888
    re.compile(r"^\s*\d{4}\s*$"),                                     # bare year
    re.compile(
        r"^\s*\d{1,2}\s+(jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\.?\s+\d{2,4}\s*$",
        re.IGNORECASE,
    ),
    re.compile(
        r"^\s*(jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\.?\s+\d{1,2},?\s+\d{2,4}\s*$",
        re.IGNORECASE,
    ),
]

# A small lexicon of common given names; enough to recognise the synthetic
# person mentions produced by the KG builder as PERSON.
_GIVEN_NAMES = {
    "james", "mary", "john", "patricia", "robert", "jennifer", "michael",
    "linda", "william", "elizabeth", "david", "barbara", "richard", "susan",
    "joseph", "jessica", "thomas", "sarah", "charles", "karen", "peter",
    "nancy", "daniel", "lisa", "matthew", "betty", "anthony", "margaret",
    "mark", "sandra", "donald", "ashley", "steven", "kimberly", "paul",
    "emily", "andrew", "donna", "joshua", "michelle", "kenneth", "carol",
    "kevin", "amanda", "brian", "dorothy", "george", "melissa", "edward",
    "deborah", "ronald", "stephanie", "timothy", "rebecca", "jason", "laura",
    "jeffrey", "sharon", "ryan", "cynthia", "jacob", "kathleen", "gary",
    "amy", "nicholas", "angela", "eric", "shirley", "jonathan", "anna",
    "stephen", "ruth", "larry", "brenda", "justin", "pamela", "scott",
    "nicole", "brandon", "katherine", "benjamin", "samantha", "samuel",
    "christine", "gregory", "emma", "alexander", "catherine", "patrick",
    "virginia", "frank", "rachel", "raymond", "carolyn", "jack", "janet",
    "dennis", "maria", "jerry", "heather", "tyler", "diane", "aaron",
    "olivia", "jose", "julie", "adam", "joyce", "nathan", "victoria",
    "henry", "kelly", "zachary", "christina", "douglas", "lauren", "walter",
    "joan", "oliver", "evelyn", "arthur", "judith", "noah", "megan",
    "wilfred", "walter", "liam", "sophia", "lucas", "grace", "harold",
}

# Surname-like suffix heuristics: "W. Blackburn", "L. James" style mentions.
_INITIAL_SURNAME_RE = re.compile(r"^\s*[A-Z]\.\s*[A-Z][a-z]+\s*$")


def is_numeric_mention(mention: str) -> bool:
    """Return whether a cell mention is purely numeric (incl. percent/commas)."""
    if not mention or not mention.strip():
        return False
    return bool(_NUMBER_RE.match(mention))


def is_date_mention(mention: str) -> bool:
    """Return whether a cell mention looks like a calendar date or bare year."""
    if not mention or not mention.strip():
        return False
    return any(pattern.match(mention) for pattern in _DATE_PATTERNS)


def is_person_mention(mention: str) -> bool:
    """Heuristically recognise person names ("Peter Steele", "W. Blackburn")."""
    if not mention or not mention.strip():
        return False
    stripped = mention.strip()
    if _INITIAL_SURNAME_RE.match(stripped):
        return True
    words = stripped.split()
    if not 1 < len(words) <= 4:
        return False
    if not all(word[0].isupper() and word[1:].islower() for word in words if word.isalpha()):
        return False
    return words[0].lower() in _GIVEN_NAMES


def detect_schema(mention: str) -> EntitySchema:
    """Classify a mention into the coarse named-entity schema.

    Dates come first, but only those the numeric pattern does not also match:
    a bare year such as ``1987`` is classified as a NUMBER.  The paper treats
    numbers and dates the same way for linking, so this tie-break does not
    change which cells are linked.  Persons come next, then OTHER.
    """
    if mention is None or not str(mention).strip():
        return EntitySchema.OTHER
    mention = str(mention)
    if is_date_mention(mention) and not _NUMBER_RE.match(mention):
        return EntitySchema.DATE
    if is_numeric_mention(mention):
        return EntitySchema.NUMBER
    if is_person_mention(mention):
        return EntitySchema.PERSON
    return EntitySchema.OTHER
