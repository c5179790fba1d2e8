"""The line rule shared by every tab-separated input.

Lines end where ``str.splitlines`` ends them (LF, CR, CRLF and the other
Unicode line breaks) and are numbered from 1 over all of them.  Spaces
are stripped from both ends of a line but tabs are kept, so a leading or
trailing tab is an empty field.  Blank and whitespace-only lines and
lines starting with ``#`` are skipped; every other line is split on tabs.
"""

from __future__ import annotations

from typing import Iterator


def rows(
    text: str, kind: str, arities: tuple[int, ...], error: type[ValueError]
) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each data line of ``text``.

    A line whose field count is not in ``arities`` raises ``error`` with
    the message ``<kind> line N: expected K fields, got M``."""
    expected = " or ".join(map(str, arities))
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip(" ")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in arities:
            raise error(f"{kind} line {lineno}: expected {expected} fields, got {len(fields)}")
        yield lineno, fields
