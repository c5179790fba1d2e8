"""The line rule shared by every tab-separated input.

Lines end where ``str.splitlines`` ends them (LF, CR, CRLF and the other
Unicode line breaks) and are numbered from 1 over all of them.  Spaces
are stripped from both ends of a line but tabs are kept, so a leading or
trailing tab is an empty field.  Blank and whitespace-only lines and
lines starting with ``#`` are skipped; every other line is split on tabs.

``rows`` defines the rule and is the only place that names a line in an
error: a reader's ``parse`` raises a plain ``ValueError`` about the
fields it was given, and ``rows`` adds ``<kind> line N: `` to it once.
``integer`` is the one rule for a count field: an optional ``-``, then
ASCII digits.

``columns`` reads plain text, the common case, a chunk of lines at a
time: it checks the layout of every line in C and splits the chunk into
columns, which the reader checks in bulk, each distinct value once.
The triples, restrictions, taxonomy and lexicon readers take it first
and read the whole text with ``rows`` at the first line or field it or
they do not accept, so an unusual file gets the same value and every
error its line number.  The counts reader stays on ``rows`` for now: its
column version belongs with a triples reader that groups lines as it
reads them, as both would share that grouping.  Gold, labels and the
lemma table are small.
"""

from __future__ import annotations

from typing import Callable, Iterator, TypeVar

T = TypeVar("T")

# ``columns`` reads about this many characters at a time, cut after a
# line break, so only one chunk's cells are alive at once.
CHUNK = 1 << 16
# Every byte but the tab, LF and the other ASCII line breaks.  Deleted from
# a plain chunk, they leave its skeleton: ``arity - 1`` tabs and an LF per line.
_FIELD_BYTES = bytes(b for b in range(256) if b not in b"\t\n\r\x0b\x0c\x1c\x1d\x1e")


def rows(
    text: str,
    kind: str,
    arities: tuple[int, ...],
    error: type[ValueError],
    parse: Callable[[int, list[str]], T],
) -> list[T]:
    """``parse(line number, fields)`` of each data line of ``text``, in order.

    A line whose field count is not in ``arities``, or whose ``parse``
    raises ``ValueError``, raises ``error`` with the message
    ``<kind> line N: <message>``, as in ``expected K fields, got M``."""
    expected = " or ".join(map(str, arities))
    out: list[T] = []
    append = out.append
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip(" ")
        if not line or line.isspace() or line[0] == "#":
            continue
        fields = line.split("\t")
        try:
            if len(fields) not in arities:
                raise ValueError(f"expected {expected} fields, got {len(fields)}")
            append(parse(lineno, fields))
        except ValueError as exc:
            raise error(f"{kind} line {lineno}: {exc}") from None
    return out


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


def columns(text: str, arity: int) -> Iterator[list[list[str]] | None]:
    """The fields of the data lines of ``text``, column by column: one
    list of ``arity`` columns per chunk of lines, in order.

    This is ``rows``' rule for plain text only, split in C.  Leading
    ``#`` lines are dropped.  Every other line must be plain: ``arity``
    (at least 2) fields, no space at either end, no leading ``#``, and
    LF the only line break.  At the first chunk that is not, the iterator
    yields ``None`` and stops, and its caller reads the whole text with
    ``rows`` instead, which gives the same value or names the line in
    error.  A whitespace-only line, which ``rows`` skips, is plain only
    if each of its fields is empty or whitespace, so a caller may take
    the fields as they come only if it refuses such a field in some
    column."""
    start, end = 0, len(text)
    while text.startswith("#", start):
        cut = text.find("\n", start) + 1 or end
        line = text[start:cut].rstrip("\n")
        if line.splitlines() != [line]:
            yield None
            return
        start = cut
    while start < end:
        cut = text.find("\n", start + CHUNK) + 1 or end
        chunk = text[start:cut]
        start = cut
        if not chunk.endswith("\n"):
            chunk += "\n"
        if not _plain(chunk, arity):
            yield None
            return
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
