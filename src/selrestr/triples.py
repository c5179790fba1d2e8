"""Triple records and the triples files that hold them.

A triples file has one ``verb<TAB>rel<TAB>noun`` line per kept
observation; its discard sidecar adds the reason as a fourth field.  The
relation is coded the way ``extract`` writes it: ``0`` for subject, ``1``
for object, otherwise the preposition itself in lowercase.

Records are named tuples, and a relation is a validated ``str``
subclass, so the dict lookups keyed by relations downstream hash and
compare in C; ``relation`` keeps one per code for the extractor and
every reader.  ``read_triples`` reads a plain file a column at a time
(``tsv.columns``) and anything else through ``tsv.rows``.

Every command loads this module: ``cli`` checks its options with
``ExtractionError`` and ``key_names``, the readers of every other file
build on ``SynRel`` and ``triple_fields``, and ``percentage`` formats
the shares that ``extract`` and ``eval`` print, so neither command loads
the other's module for it.
"""

from __future__ import annotations

from itertools import repeat, starmap
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .tsv import columns, rows

if TYPE_CHECKING:
    from decimal import Decimal

SUBJECT_CODE = "0"
OBJECT_CODE = "1"


class ExtractionError(ValueError):
    """Malformed extractor input (lemma table or triples file)."""


def key_names(keys: Iterable[str]) -> str:
    """The keys, sorted and comma-separated, for a one-line message: a key
    with a non-printable character, such as a newline, is given as its
    ``repr``."""
    return ", ".join(key if key.isprintable() else repr(key) for key in sorted(keys))


def percentage(part: int, whole: int) -> Decimal:
    """part/whole as a percentage with one decimal, ties rounding up."""
    from decimal import ROUND_HALF_UP, Decimal

    if whole == 0:
        return Decimal("0.0")
    return (Decimal(part * 100) / Decimal(whole)).quantize(
        Decimal("0.1"), rounding=ROUND_HALF_UP
    )


class SynRel(str):
    """Syntactic relation between a verb and a complement head.

    ``code`` is "0" (subject), "1" (object) or a lowercase preposition.
    A relation is its code as a ``str`` subclass, so hashing, equality
    and ordering run in C and equal a comparison of the codes.
    """

    __slots__ = ()

    def __new__(cls, code: str) -> "SynRel":
        if code not in (SUBJECT_CODE, OBJECT_CODE) and (
            not code or code != code.lower() or any(ch.isspace() for ch in code)
        ):
            raise ValueError(f"bad relation code {code!r}")
        return str.__new__(cls, code)

    @property
    def code(self) -> str:
        return str.__str__(self)

    def __repr__(self) -> str:
        return f"SynRel(code={self.code!r})"


SUBJECT = SynRel(SUBJECT_CODE)
OBJECT = SynRel(OBJECT_CODE)

# The one relation of each code seen, shared by every record and reader.
_RELATIONS: dict[str, SynRel] = {SUBJECT_CODE: SUBJECT, OBJECT_CODE: OBJECT}


def relation(code: str) -> SynRel:
    """The shared ``SynRel`` of ``code``; a bad code raises ``ValueError``."""
    rel = _RELATIONS.get(code)
    if rel is None:
        rel = _RELATIONS[code] = SynRel(code)
    return rel


def triple_fields(fields: list[str], name: str = "noun") -> tuple[str, SynRel, str]:
    """(verb, relation, name) from the first three fields of a TSV line:
    neither the verb nor the name may be empty, and the second field
    must be a relation code."""
    verb, code, value = fields[0], fields[1], fields[2]
    if not verb or not value:
        raise ValueError(f"empty verb or {name}")
    return verb, _RELATIONS.get(code) or relation(code), value


class TripleRecord(NamedTuple):
    """One (verb, relation, noun) observation; discards carry their reason."""

    verb: str
    rel: SynRel
    noun: str
    discard_reason: str | None = None

    @property
    def kept(self) -> bool:
        return self.discard_reason is None


def write_triples(records: Iterable[TripleRecord], f) -> None:
    """Write kept records, one ``verb<TAB>rel<TAB>noun`` line each.  One
    write for all the lines: a write per line costs more than the join."""
    lines = []
    for verb, rel, noun, reason in records:
        if reason is not None:
            raise ValueError("discarded record in triples output; write it to the sidecar")
        lines.append(f"{verb}\t{rel}\t{noun}\n")
    f.write("".join(lines))


def write_discards(records: Iterable[TripleRecord], f) -> None:
    """Write discarded records as triples lines with the reason as a
    fourth field, in one write."""
    lines = []
    for verb, rel, noun, reason in records:
        if reason is None:
            raise ValueError("kept record in discard sidecar")
        lines.append(f"{verb}\t{rel}\t{noun}\t{reason}\n")
    f.write("".join(lines))


def read_triples(text: str) -> list[TripleRecord]:
    """Parse a triples file; each line becomes a kept record, in file
    order.  The records share each distinct verb and noun string: one
    ``setdefault`` table holds the first of each."""
    share = {}.setdefault
    records: list[TripleRecord] = []
    for chunk in columns(text, 3):
        if chunk is None:
            break
        verbs, codes, nouns = chunk
        if "" in verbs or "" in nouns:
            break
        try:
            rels = {code: relation(code) for code in set(codes)}
        except ValueError:
            break
        fields = zip(
            map(share, verbs, verbs), map(rels.__getitem__, codes), map(share, nouns, nouns),
            repeat(None),
        )
        # Checked fields: skip TripleRecord's Python-level __new__.
        records += starmap(tuple.__new__, zip(repeat(TripleRecord), fields))
    else:
        return records

    def record(lineno: int, fields: list[str]) -> TripleRecord:
        verb, rel, noun = triple_fields(fields)
        # Checked fields: skip TripleRecord's Python-level __new__.
        return tuple.__new__(TripleRecord, (share(verb, verb), rel, share(noun, noun), None))

    return rows(text, "triples", (3,), ExtractionError, record)
