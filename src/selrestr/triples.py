"""Triple records and the triples files that hold them.

A triples file has one ``verb<TAB>rel<TAB>noun`` line per kept
observation; its discard sidecar adds the reason as a fourth field.  The
relation is coded the way ``extract`` writes it: ``0`` for subject, ``1``
for object, otherwise the preposition itself in lowercase.

Records are named tuples, and a relation is a validated ``str``
subclass, so the dict lookups keyed by relations downstream hash and
compare in C.  ``read_triples`` is the triples spec read by
``tsv.read``: within one read each distinct verb, noun and relation is
one object, and no table of them outlives the read.

Every command loads this module: ``cli`` checks its options with
``ExtractionError`` and ``key_names``, the counts, restrictions, gold and
labels specs use ``SynRel`` or ``VERB_OR_NOUN`` as field kinds, and
``percentage`` formats the shares that ``extract`` and ``eval`` print,
so neither command loads the other's module for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from .tsv import Spec, name, read

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
    and ordering run in C and equal a comparison of the codes.  The class
    is also the field kind of a relation code (``bad relation code 'X'``).
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


VERB_OR_NOUN = name("empty verb or noun")


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


TRIPLES = Spec(
    "triples", ExtractionError, (VERB_OR_NOUN, SynRel, VERB_OR_NOUN), (3,), TripleRecord
)


def read_triples(text: str) -> list[TripleRecord]:
    """Parse a triples file; each line becomes a kept record, in file order."""
    return read(text, TRIPLES)
