"""The one reader of every tab-separated input: a field spec per file.

Lines end where ``str.splitlines`` ends them (LF, CR, CRLF and the other
Unicode line breaks) and are numbered from 1 over all of them.  Spaces
are stripped from both ends of a line but tabs are kept, so a leading or
trailing tab is an empty field.  Blank and whitespace-only lines and
lines starting with ``#`` are skipped; every other line is split on tabs.

A file's ``Spec`` names its kind (``counts``), its error class, one field
kind per column and the record each line becomes.  A field kind is the
one rule of a field, with its message: it takes one field value and
returns what the value stands for, or raises ``ValueError``.  ``name``,
``count`` and ``token`` make the kinds that several files share; the
relation, score and class-id list kinds live with the records that hold
them.

``read`` runs a spec two ways, with the same kinds.  On plain text, the
common case, ``columns`` splits a chunk of lines at a time into columns
in C, and each kind checks each distinct value of its columns once per
read, so equal fields share one value; the records are built in C.  On
any other text, or at the first value that a kind refuses, ``rows``
reads the text again line by line, each field a one-value column, so it
gives the same value or names the first line in error.

A reader may give two functions of the records and their line numbers.
``check`` looks for a fault between lines that the lines before it
show, such as a duplicate, and raises ``RecordError`` at the first in
file order; it is given the records before a bad field, so the first
fault in the file is the one named.  ``build`` makes the file's value
from every record, and may raise ``RecordError`` for a fault that only
the whole file shows, such as a parent that no line defines.  Only
``read`` and ``rows`` add ``<kind> line N: `` to a message.  ``integer``
is the one rule for a count field: an optional ``-``, then ASCII digits.
"""

from __future__ import annotations

from itertools import islice, repeat, starmap
from operator import is_not
from typing import Any, Callable, Iterator, NamedTuple, Sequence

# A field rule: a raw value in, what it stands for out.
Kind = Callable[[str], Any]
# A reader's check or build: the records and their line numbers in.
Stage = Callable[[list, Sequence[int]], Any]

# ``columns`` reads about this many characters at a time, cut after a
# line break, so only one chunk's cells are alive at once.
CHUNK = 1 << 16
# Every byte but the tab, LF and the other ASCII line breaks.  Deleted from
# a plain chunk, they leave its skeleton: ``arity - 1`` tabs and an LF per line.
_FIELD_BYTES = bytes(b for b in range(256) if b not in b"\t\n\r\x0b\x0c\x1c\x1d\x1e")


class Spec(NamedTuple):
    """How to read one kind of file.  ``fields`` holds a kind per column,
    as many as the longest line has; ``arities`` the field counts a line
    may have.  Each line becomes a ``record`` (a tuple class) of its
    values, and the fields that a line or the file lacks are None.  A
    plain line may be whitespace only, so some kind must refuse a field
    that is empty or whitespace."""

    kind: str
    error: type[ValueError]
    fields: tuple[Kind, ...]
    arities: tuple[int, ...]
    record: type = tuple


class RecordError(ValueError):
    """A fault that a reader's ``check`` or ``build`` finds in record
    ``index``; ``read`` names the record's line."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def read(text: str, spec: Spec, build: Stage | None = None, check: Stage | None = None):
    """``build(records, lines)`` of the data lines of ``text``: their
    records in order, and the line number of each; the records themselves
    without ``build``.  ``check(records, lines)`` runs first.  A field or
    a line that ``spec`` refuses, or a ``RecordError`` from ``check`` or
    ``build``, raises ``spec.error`` naming the first line at fault."""
    kinds = spec.fields
    memos = _memos(kinds)
    pad = [repeat(None)] * (len(getattr(spec.record, "_fields", kinds)) - len(kinds))
    records: list = []
    fault = None
    try:
        for chunk in columns(text, len(kinds)):
            values = [*map(_checked, kinds, memos, chunk)]
            # Checked fields: skip a named tuple's Python-level __new__.
            records += starmap(tuple.__new__, zip(repeat(spec.record), zip(*values, *pad)))
        # Plain text: every line after the leading # lines is a record.
        total = text.count("\n") + (not text.endswith("\n"))
        lines: Sequence[int] = range(total - len(records) + 1, total + 1)
    except ValueError:  # not plain, or a kind refused a value
        records, lines, fault = rows(text, spec)
    try:
        if check is not None:
            check(records, lines)
        if fault is not None:
            raise fault
        return records if build is None else build(records, lines)
    except RecordError as exc:
        raise spec.error(f"{spec.kind} line {lines[exc.index]}: {exc}") from None


def _memos(kinds: Sequence[Kind]) -> list[dict]:
    """An empty memo per column, one for all the columns of one kind."""
    by_kind: dict[Kind, dict] = {kind: {} for kind in kinds}
    return [by_kind[kind] for kind in kinds]


def _checked(kind: Kind, memo: dict, column: Sequence[str]) -> list:
    """What ``kind`` makes of each value of ``column``.  ``memo`` maps the
    values checked so far in this read to their results, so each distinct
    value is checked once and equal fields share one result.  A value
    that ``kind`` refuses leaves the memo unfit for another call."""
    seen = len(memo)
    values = [*map(memo.setdefault, column, column)]
    if len(memo) > seen:
        new = [*islice(reversed(memo), len(memo) - seen)]  # the keys just added
        made = [*map(kind, new)]
        memo.update(zip(new, made))
        if any(map(is_not, made, new)):  # the kind converts: look the new values up
            values = [*map(memo.__getitem__, column)]
    return values


def rows(text: str, spec: Spec) -> tuple[list, list[int], ValueError | None]:
    """The records of ``text`` line by line, their line numbers, and the
    error of the first line in error, if any: only the lines before it
    are read.

    A line whose field count is not in ``spec.arities``, or a field that
    its kind refuses, makes ``spec.error`` with the message ``<kind> line
    N: <message>``, as in ``expected K fields, got M``."""
    kind, error, kinds, arities, record = spec
    expected = " or ".join(map(str, arities))
    memos = _memos(kinds)
    pad = (None,) * len(getattr(record, "_fields", kinds))
    records: list = []
    lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip(" ")
        if not line or line.isspace() or line[0] == "#":
            continue
        fields = line.split("\t")
        try:
            if len(fields) not in arities:
                raise ValueError(f"expected {expected} fields, got {len(fields)}")
            values = [_checked(*field)[0] for field in zip(kinds, memos, zip(fields))]
        except ValueError as exc:
            return records, lines, error(f"{kind} line {lineno}: {exc}")
        records.append(tuple.__new__(record, (*values, *pad[len(values):])))
        lines.append(lineno)
    return records, lines, None


# -- shared field kinds ------------------------------------------------------
# Each message is a template, formatted with the value it refuses.


def name(empty: str, spaced: str | None = None) -> Kind:
    """A name, taken as it is: not empty (``empty``) and, with ``spaced``,
    holding no whitespace (``spaced``)."""

    def check(value: str) -> str:
        if not value:
            raise ValueError(empty.format(value))
        # split() breaks at exactly the characters isspace() accepts, in C.
        if spaced is not None and value.split() != [value]:
            raise ValueError(spaced.format(value))
        return value

    return check


def count(what: str, least: int, below: str) -> Kind:
    """An integer by ``integer`` (``bad <what> ...``), at least ``least``
    (``below``)."""

    def check(value: str) -> int:
        n = integer(value, what)
        if n < least:
            raise ValueError(below)
        return n

    return check


def token(table: dict[str, Any], bad: str) -> Kind:
    """One of the keys of ``table``, as its value; another value is ``bad``."""

    def check(value: str) -> Any:
        if value not in table:
            raise ValueError(bad.format(value))
        return table[value]

    return check


def integer(field: str, what: str) -> int:
    """``field`` as an int: an optional ``-``, then ASCII digits, so ``+5``,
    `` 5`` and ``1_000`` are errors (``bad <what> '<field>'``), and so is
    a field with more digits than the interpreter converts.  The caller
    checks the range."""
    # Plain digits first: the common case takes two C calls.
    if not (field.isdigit() and field.isascii()) and not (
        field.startswith("-") and field[1:].isdigit() and field.isascii()
    ):
        raise ValueError(f"bad {what} {field!r}")
    try:
        return int(field)
    except ValueError:
        raise ValueError(f"bad {what}: too many digits") from None


def columns(text: str, arity: int) -> Iterator[list[list[str]]]:
    """The fields of the data lines of ``text``, column by column: one
    list of ``arity`` columns per chunk of lines, in order.

    This is ``rows``' rule for plain text only, split in C.  Leading
    ``#`` lines are dropped.  Every other line must be plain: ``arity``
    (at least 2) fields, no space at either end, no leading ``#``, and
    LF the only line break.  The first chunk that is not raises
    ``ValueError``.  A whitespace-only line, which ``rows`` skips, is
    plain only if each of its fields is empty or whitespace."""
    start, end = 0, len(text)
    while text.startswith("#", start):
        cut = text.find("\n", start) + 1 or end
        line = text[start:cut].rstrip("\n")
        if line.splitlines() != [line]:
            raise ValueError("not plain")
        start = cut
    while start < end:
        cut = text.find("\n", start + CHUNK) + 1 or end
        chunk = text[start:cut]
        start = cut
        if not chunk.endswith("\n"):
            chunk += "\n"
        if not _plain(chunk, arity):
            raise ValueError("not plain")
        cells = chunk.replace("\n", "\t").split("\t")
        del cells[-1]
        yield [cells[i::arity] for i in range(arity)]


def _plain(chunk: str, arity: int) -> bool:
    """Whether every line of ``chunk``, which ends in LF, is plain."""
    if (" " in chunk or "#" in chunk) and (
        chunk[0] in " #" or "\n " in chunk or " \n" in chunk or "\n#" in chunk
    ):
        return False
    if not chunk.isascii() and ("\x85" in chunk or "\u2028" in chunk or "\u2029" in chunk):
        return False
    skeleton = chunk.encode("utf-8", "surrogatepass").translate(None, _FIELD_BYTES)
    return skeleton == (b"\t" * (arity - 1) + b"\n") * (len(skeleton) // arity)
