"""Selectional restrictions and the restriction files that hold them.

A restrictions file opens with ``# key=value`` header lines, among them
the scorer and estimator that learned it and the SHA-256 of each input,
followed by one ``verb<TAB>rel<TAB>class<TAB>score<TAB>nouns<TAB>support``
line per restriction.  ``learn`` writes it; ``eval`` and ``report`` read
it.  ``read_restrictions`` is the restrictions spec read by
``tsv.read``; ``VERB_OR_CLASS`` is also the labels file's field kind.

``ScoreKind`` and ``EstimatorKind`` live here, with the header that
names them, because ``cli`` builds every command's parser from their
values: so the commands that never score load no scoring code.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Mapping, NamedTuple

from .triples import ExtractionError, SynRel
from .tsv import Spec, count, name, read


class EstimatorKind(Enum):
    RAW = "raw"
    SENSE_CORRECTED = "sense"


class ScoreKind(Enum):
    ASSOC = "assoc"
    ASSOC_PAIR_MI = "pairmi"
    LOG_LIKELIHOOD_RATIO = "g2"


class SelectionalRestriction(NamedTuple):
    """A scored (verb, relation, class) with its evidence: a ranked
    candidate while learning, an acquired constraint once selected.  It
    is an immutable named tuple; ``sr._replace(score=...)`` is a copy
    with another score."""

    verb: str
    rel: SynRel
    class_id: str
    score: float
    n_nouns: int
    support: int


def format_restriction(sr: SelectionalRestriction) -> str:
    return (  # a relation prints as its code; a score of -0.0 as 0.000000
        f"{sr.verb}\t{sr.rel}\t{sr.class_id}"
        f"\t{sr.score or 0.0:.6f}\t{sr.n_nouns}\t{sr.support}"
    )


def write_restrictions(
    restrictions: Iterable[SelectionalRestriction],
    f,
    header: Mapping[str, str] | None = None,
) -> None:
    if header:
        for key, value in header.items():
            f.write(f"# {key}={value}\n")
    # One write for all the lines: a write per line costs more than the join.
    f.write("".join([format_restriction(sr) + "\n" for sr in restrictions]))


def read_header(text: str) -> dict[str, str]:
    """The ``# key=value`` lines that open a restrictions file.

    Only the leading block of ``#`` and blank lines is split, with the
    line breaks of ``str.splitlines``: the head of the text is read four
    times longer each time until it holds a data line or the whole text.
    A line cut at the end of a head starts as the whole line does, so it
    ends the block exactly when the whole line would."""
    size = 1024
    while True:
        head = text[:size]
        header: dict[str, str] = {}
        for raw in head.splitlines():
            line = raw.strip()
            if line and not line.startswith("#"):
                return header
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                header[key] = value
        if len(head) == len(text):
            return header
        size *= 4


def _score(text: str) -> float:
    """The field kind of a score: a float, and finite."""
    score = float(text)
    if not math.isfinite(score):
        raise ValueError(f"score must be finite, got {text!r}")
    return score


VERB_OR_CLASS = name("empty verb or class")
_NOT_NEGATIVE = "nouns and support must be >= 0"
RESTRICTIONS = Spec(
    "restrictions",
    ExtractionError,
    (
        VERB_OR_CLASS, SynRel, VERB_OR_CLASS, _score,
        count("nouns count", 0, _NOT_NEGATIVE), count("support count", 0, _NOT_NEGATIVE),
    ),
    (6,),
    SelectionalRestriction,
)


def read_restrictions(text: str) -> list[SelectionalRestriction]:
    """The restrictions of a restrictions file, in file order."""
    return read(text, RESTRICTIONS)
