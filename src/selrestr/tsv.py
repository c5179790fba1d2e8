"""The line rule shared by every tab-separated input.

Lines end where ``str.splitlines`` ends them (LF, CR, CRLF and the other
Unicode line breaks) and are numbered from 1 over all of them.  Spaces
are stripped from both ends of a line but tabs are kept, so a leading or
trailing tab is an empty field.  Blank and whitespace-only lines and
lines starting with ``#`` are skipped; every other line is split on tabs.

``rows`` is the only place that names a line in an error: a reader's
``parse`` raises a plain ``ValueError`` about the fields it was given,
and ``rows`` adds ``<kind> line N: `` to it once.  ``integer`` is the one
rule for a count field: an optional ``-``, then ASCII digits.
"""

from __future__ import annotations

from typing import Callable, TypeVar

T = TypeVar("T")


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
