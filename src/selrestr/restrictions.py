"""Selectional restrictions and the restriction files that hold them.

A restrictions file opens with ``# key=value`` header lines, among them
the scorer and estimator that learned it and the SHA-256 of each input,
followed by one ``verb<TAB>rel<TAB>class<TAB>score<TAB>nouns<TAB>support``
line per restriction.  ``learn`` writes it; ``eval`` and ``report`` read
it.  ``read_restrictions`` reads a plain file a column at a time
(``tsv.columns``) and anything else through ``tsv.rows``.

``ScoreKind`` and ``EstimatorKind`` live here, with the header that
names them, because ``cli`` builds every command's parser from their
values: so the commands that never score load no scoring code.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import repeat, starmap
from typing import Iterable, Mapping, NamedTuple

from .triples import ExtractionError, SynRel, relation, triple_fields
from .tsv import columns, integer, rows


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


def read_restrictions(text: str) -> list[SelectionalRestriction]:
    """The restrictions of a restrictions file, in file order."""
    restrictions: list[SelectionalRestriction] = []
    for chunk in columns(text, 6):
        if chunk is None:
            break
        verbs, codes, classes, score_texts, nouns, supports = chunk
        if "" in verbs or "" in classes:
            break
        # Each distinct relation code and count once; counts must be plain
        # ASCII digits, as a negative count is an error.
        counts = set(nouns)
        counts.update(supports)
        digits = "".join(counts)
        if "" in counts or not (digits.isdigit() and digits.isascii()):
            break
        try:
            rels = {code: relation(code) for code in set(codes)}
            values = dict(zip(counts, map(int, counts)))
            scores = list(map(float, score_texts))
        except ValueError:
            break
        if not all(map(math.isfinite, scores)):
            break
        fields = zip(
            verbs, map(rels.__getitem__, codes), classes, scores,
            map(values.__getitem__, nouns), map(values.__getitem__, supports),
        )
        # Checked fields: skip SelectionalRestriction's Python-level __new__.
        restrictions += starmap(tuple.__new__, zip(repeat(SelectionalRestriction), fields))
    else:
        return restrictions
    return rows(text, "restrictions", (6,), ExtractionError, _restriction_row)


def _restriction_row(lineno: int, fields: list[str]) -> SelectionalRestriction:
    verb, rel, class_id = triple_fields(fields, "class")
    score = float(fields[3])
    n_nouns, support = integer(fields[4], "nouns count"), integer(fields[5], "support count")
    if not math.isfinite(score):
        raise ValueError(f"score must be finite, got {fields[3]!r}")
    if n_nouns < 0 or support < 0:
        raise ValueError("nouns and support must be >= 0")
    # Checked fields: skip SelectionalRestriction's Python-level __new__.
    return tuple.__new__(SelectionalRestriction, (verb, rel, class_id, score, n_nouns, support))
