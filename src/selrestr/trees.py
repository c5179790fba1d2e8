"""Reader for skeletal bracketed parse trees.

Accepts the flat s-expression style used by treebank corpora: one or
more trees per input, ``(LABEL child child ...)`` for constituents and
``(TAG token)`` for leaves.  Whitespace between tokens is free-form, so
trees may span lines.

The reader is one state machine fed by ``(`` pieces: the text is split
on "(", and each piece, the text from one "(" up to the next, is read
once per distinct piece as one of three shapes.  ``LABEL`` opens a
constituent; ``TAG token)`` and any further ")" make a leaf, which needs
no frame on the bracket stack, and close that many brackets; anything
else, such as ``NP stray`` or ``dog)x)``, is read atom by atom, a token
or a ")" at a time.  Each open bracket keeps the ordinal of its "(", so
an error is located where it is read: the "(" of the bracket that fails
to close, or the ")" or token after the last bracket closed; only then
is the text scanned for its offset.  Nodes are immutable tuples
(``ParseTree``), and every walk over them is iterative, so nesting depth
is bounded by memory, not by the interpreter's recursion limit.

A treebank repeats a few labels and a few thousand tokens and leaves
over and over, so one parse shares them: a dict local to the call maps
each piece to its shape and each label and token to itself, and another
holds each leaf by label and token.  Within one parse, each distinct
label and token is one string and each distinct leaf one node, which
may stand at many places in the trees.  Nothing is cached between
parses.

``read_text`` is a corpus file's text as the reader reads it, and
``cut`` cuts a text between trees, by counting brackets, into shares
that a caller may parse apart: ``extract`` parses each in a process of
its own.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .tsv import decode


class TreeSyntaxError(ValueError):
    """Ill-formed bracketing; ``offset`` is the character position in the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


class _Node(NamedTuple):
    label: str
    children: tuple["ParseTree", ...]
    token: str | None


class ParseTree(_Node):
    """A constituent (with children) or a tagged leaf (with a token).

    Nodes compare by value.  Equal leaves from one parse may be one
    object, so only ``is`` or ``id()`` tells their places apart."""

    __slots__ = ()

    def __new__(cls, label: str, children: tuple["ParseTree", ...] = (), token: str | None = None):
        if not label:
            raise ValueError("empty node label")
        if bool(children) == (token is not None):
            raise ValueError(f"node {label!r} must have children or a token, not both")
        return tuple.__new__(cls, (label, children, token))


# Parser-made nodes are valid by construction and skip ParseTree's checks.
_new_node = tuple.__new__

# The atoms of a piece read one at a time: tokens and ")".
_ATOM = re.compile(r"[^\s)]+|\)")

# The text is split on "(" a chunk at a time, each chunk about this many
# characters long and cut just before a "(".
_CHUNK = 1 << 13


def _nth(text: str, char: str, n: int) -> int:
    """Offset of the ``n``-th ``char`` in ``text``, counting from 1."""
    at = -1
    for _ in range(n):
        at = text.find(char, at + 1)
    return at


def _leaf(leaves: dict, label: str, token: str) -> ParseTree:
    """The one leaf of ``label`` and ``token``, made on first use.  Leaves
    are kept by label, then token, so no key tuple is kept per leaf."""
    by_token = leaves.setdefault(label, {})
    leaf = by_token.get(token)
    if leaf is None:
        leaf = by_token[token] = _new_node(ParseTree, (label, (), token))
    return leaf


def _shape(piece: str, strings: dict, leaves: dict):
    """What ``piece``, the text after a "(" up to the next one, reads as:
    its label if it is ``LABEL``, a ``(leaf, closes)`` pair if it is
    ``TAG token)`` and ``closes`` more ")", and False otherwise."""
    head, close, tail = piece.partition(")")
    words = [strings.setdefault(word, word) for word in head.split()]
    if not close and len(words) == 1:
        return words[0]
    if close and len(words) == 2 and not tail.replace(")", "").strip():
        return _leaf(leaves, *words), tail.count(")")
    return False


def _stray_error(text: str, closed: int, atom: str) -> TreeSyntaxError:
    """The error for an atom read with no bracket open, after ``closed``
    brackets have opened and closed: a ")" is the next one in the text,
    and a token the first non-space after the last one."""
    if atom == ")":
        return TreeSyntaxError("unbalanced parentheses: unexpected ')'", _nth(text, ")", closed + 1))
    at = _nth(text, ")", closed) + 1 if closed else 0
    while text[at].isspace():
        at += 1
    return TreeSyntaxError(f"token {atom!r} outside any tree", at)


def _close_error(text: str, frame: list) -> TreeSyntaxError:
    """The error a ")" raises when ``frame`` is not a leaf with one token
    or a labelled constituent with children only."""
    label, children, token, ordinal = frame
    open_at = _nth(text, "(", ordinal)
    if label is None or token is None:
        return TreeSyntaxError("empty constituent", open_at)
    if children:
        return TreeSyntaxError(f"constituent {label!r} mixes tokens and sub-constituents", open_at)
    return TreeSyntaxError(f"leaf {label!r} has more than one token", open_at)


def parse_bracketed(text: str) -> list[ParseTree]:
    """Parse every top-level tree in ``text``, preserving input order.

    Within one call each distinct label and token is one string object,
    and each distinct ``(TAG token)`` leaf one ``ParseTree``."""
    trees: list[ParseTree] = []
    # Frames of the open brackets: [label or None, children, token, ordinal
    # of its "("].  The token is None before the first, and "" after a second.
    stack: list[list] = []
    push, pop = stack.append, stack.pop
    siblings = trees  # children of the innermost frame
    # Each piece seen so far to its shape.  A label or token is a key too,
    # to itself, so equal ones from different pieces are one string; a
    # piece that is such a word is its own label, so the two agree.
    shapes: dict = {}
    leaves: dict[str, dict[str, ParseTree]] = {}
    opened = 0  # the "(" read so far
    start, end = text.find("("), len(text)
    if start < 0:
        start = end
    first = _ATOM.search(text, 0, start)
    if first:
        raise _stray_error(text, 0, first[0])
    while start < end:
        stop = text.find("(", start + _CHUNK)
        if stop < 0:
            stop = end
        pieces = text[start + 1 : stop].split("(")
        start = stop
        for piece in pieces:
            opened += 1
            shape = shapes.get(piece)
            if shape is None:
                shape = shapes[piece] = _shape(piece, shapes, leaves)
            if shape.__class__ is str:
                siblings = []
                push([shape, siblings, None, opened])
                continue
            if shape:
                leaf, closes = shape
                siblings.append(leaf)
                atoms = ")" * closes
            else:
                siblings = []
                push([None, siblings, None, opened])
                atoms = _ATOM.findall(piece)
            for atom in atoms:
                if not stack:
                    raise _stray_error(text, opened, atom)
                if atom != ")":
                    frame = stack[-1]
                    atom = shapes.setdefault(atom, atom)
                    if frame[0] is None:
                        frame[0] = atom
                    elif frame[2] is None:
                        frame[2] = atom
                    else:
                        frame[2] = ""
                    continue
                frame = pop()
                label, children, token, _ = frame
                if token is None and label is not None and children:
                    tree = _new_node(ParseTree, (label, tuple(children), None))
                elif token and not children:
                    tree = _leaf(leaves, label, token)
                else:
                    raise _close_error(text, frame)
                siblings = stack[-1][1] if stack else trees
                siblings.append(tree)
    if stack:
        raise TreeSyntaxError("unbalanced parentheses: unclosed '('", len(text))
    return trees


def read_text(path) -> str:
    """The text of a corpus file as the reader reads it: decoded by
    ``tsv.decode``, so one leading byte order mark is dropped and a bad
    byte is reported at its position in the file, and with CR and CRLF
    line ends read as one "\\n"."""
    with open(path, "rb") as f:
        text = decode(f.read())
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_trees(path) -> list[ParseTree]:
    """The trees of a UTF-8 file, ``parse_bracketed(read_text(path))``.
    Offsets count the characters of that text: from after a leading byte
    order mark, which is dropped, and with a CRLF line end as one."""
    return parse_bracketed(read_text(path))


def cut(text: str, n: int) -> list[slice]:
    """``text`` cut into at most ``n`` shares of about equal length, in
    order: each cut is just after a line end before which ``text`` holds
    as many "(" as ")".

    Tokens hold no bracket, so that count is the reader's bracket depth
    wherever its reading has not failed: a share ends outside any tree,
    and the trees of the shares, in order, are those of ``text``.  The
    cuts are found with ``str.count``, without parsing.  A text with no
    such line end, such as one tree on one line, is one share."""
    size = len(text)
    starts = [0]
    at = depth = 0  # depth: the "(" less the ")" before at
    for k in range(1, n):
        end = text.find("\n", max(at, size * k // n))
        while end >= 0:
            stop = end + 1
            depth += text.count("(", at, stop) - text.count(")", at, stop)
            at = stop
            if depth == 0:
                break
            end = text.find("\n", at)
        if end < 0 or at == size:
            break
        starts.append(at)
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], size])]
