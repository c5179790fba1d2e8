"""Reader for skeletal bracketed parse trees.

Accepts the flat s-expression style used by treebank corpora: one or
more trees per input, ``(LABEL child child ...)`` for constituents and
``(TAG token)`` for leaves.  Whitespace between tokens is free-form, so
trees may span lines.

The reader is one token state machine fed by the whitespace-separated
words of the text, one line at a time.  Treebank text splits into words
of two shapes: ``(LABEL`` (or a bare ``(``) opens a bracket, and
``token)…)`` (or ``)…)`` alone) adds a token and closes brackets, so a
``(TAG token)`` leaf is two words and needs no frame on the bracket
stack.  Any other word, such as ``(NP(DT`` or ``dog)(NN``, is cut into
pieces of the two shapes and fed to the same machine.  An open bracket
keeps no offset: each node stands for one ``(``, so a
``TreeSyntaxError`` counts the nodes built so far to find the ``(`` or
``)`` at fault, and only then scans the text for its offset.  Nodes are
immutable tuples (``ParseTree``), and every walk over them is
iterative, so nesting depth is bounded by memory, not by the
interpreter's recursion limit.

A treebank repeats a few labels and a few thousand tokens and leaves
over and over, so one parse shares them: a dict local to the call maps
each word of either shape to its label or token, and another maps each
``(label, token)`` to its leaf.  Within one parse, each distinct label
and token is one string and each distinct leaf one node, which may
stand at many places in the trees; the ``(`` ordinals of an error
still count every place.  Nothing is cached between parses.
"""

from __future__ import annotations

import re
from typing import NamedTuple


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


# The pieces of the two shapes that any word cuts into.
_PIECE = re.compile(r"\([^()]*|[^()]*\)+|[^()]+")

# Parser-made nodes are valid by construction and skip ParseTree's checks.
_new_node = tuple.__new__


def _nth(text: str, char: str, n: int) -> int:
    """Offset of the ``n``-th ``char`` in ``text``, counting from 1."""
    at = -1
    for _ in range(n):
        at = text.find(char, at + 1)
    return at


def _size(nodes: list) -> int:
    """The number of nodes in the trees ``nodes``, one "(" each."""
    n, stack = 0, list(nodes)
    while stack:
        n += 1
        stack.extend(stack.pop()[1])
    return n


def _close_error(text: str, trees: list, stack: list, frame: list) -> TreeSyntaxError:
    """The error a ")" raises when ``frame``, just taken off ``stack``, is
    not a leaf with one token or a labelled constituent with children
    only.  Its "(" comes after those of the finished nodes outside it and
    of the frames around it."""
    label, children, token = frame
    ordinal = _size(trees) + sum(1 + _size(outer[1]) for outer in stack) + 1
    open_at = _nth(text, "(", ordinal)
    if label is None or token is None:
        return TreeSyntaxError("empty constituent", open_at)
    if children:
        return TreeSyntaxError(f"constituent {label!r} mixes tokens and sub-constituents", open_at)
    return TreeSyntaxError(f"leaf {label!r} has more than one token", open_at)


def _stray_error(text: str, trees: list, token: str | None) -> TreeSyntaxError:
    """The error for a ")" (``token`` None) or a token with no bracket
    open: every "(" so far made one of the finished ``trees``' nodes and
    was closed, so the culprit is the next ")" or the first non-space
    after the last one."""
    closed = _size(trees)
    if token is None:
        return TreeSyntaxError("unbalanced parentheses: unexpected ')'", _nth(text, ")", closed + 1))
    at = _nth(text, ")", closed) + 1 if closed else 0
    while text[at].isspace():
        at += 1
    return TreeSyntaxError(f"token {token!r} outside any tree", at)


def parse_bracketed(text: str) -> list[ParseTree]:
    """Parse every top-level tree in ``text``, preserving input order.

    Within one call each distinct label and token is one string object,
    and each distinct ``(TAG token)`` leaf one ``ParseTree``."""
    trees: list[ParseTree] = []
    # Frames of the open brackets: [label or None, children, token].  The
    # token is None before the first, and "" after a second.  A frame
    # notes nothing of where it opened: an error finds that out from the
    # nodes built so far.
    stack: list[list] = []
    push, pop = stack.append, stack.pop
    siblings = trees  # children of the innermost frame
    # The label ("" for none) of the last "(" read, not yet a frame: if
    # the next word is "token)", the two make a leaf without one.
    pending = None
    # Each word of a shape seen so far: "(LABEL" to its label, "token)…)"
    # to its token.  A label or token is also a key, to itself, so equal
    # ones from different words are one string.  Leaves by (label, token).
    strings: dict[str, str] = {}
    leaves: dict[tuple[str, str], ParseTree] = {}
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start)
        if stop < 0:
            stop = end
        words = text[start:stop].split()
        start = stop + 1
        while words:
            for word in words:
                string = strings.get(word)
                if string is None:
                    string = word[1:] if word[0] == "(" else word.rstrip(")")
                    if "(" in string or ")" in string:
                        # Not of either shape: go on from its pieces, which
                        # are.  An equal word before it would have been cut,
                        # so index() finds this one.
                        words = _PIECE.findall(word) + words[words.index(word) + 1 :]
                        break
                    string = strings[word] = strings.setdefault(string, string)
                if word[0] == "(":
                    if pending is not None:
                        siblings = []
                        push([pending or None, siblings, None])
                    pending = string
                    continue
                token = string
                closes = len(word) - len(token)
                if pending and token and closes:
                    leaf = leaves.get((pending, token))
                    if leaf is None:
                        leaf = leaves[pending, token] = _new_node(ParseTree, (pending, (), token))
                    siblings.append(leaf)
                    pending = None
                    closes -= 1
                else:
                    if pending is not None:
                        siblings = []
                        push([pending or None, siblings, None])
                        pending = None
                    if token:
                        if not stack:
                            raise _stray_error(text, trees, token)
                        frame = stack[-1]
                        if frame[0] is None:
                            frame[0] = token
                        elif frame[2] is None:
                            frame[2] = token
                        else:
                            frame[2] = ""
                while closes:
                    if not stack:
                        raise _stray_error(text, trees, None)
                    frame = pop()
                    label, children, token = frame
                    if token is None:
                        if label is None or not children:
                            raise _close_error(text, trees, stack, frame)
                        tree = _new_node(ParseTree, (label, tuple(children), None))
                    elif token and not children:
                        tree = leaves.get((label, token))
                        if tree is None:
                            tree = leaves[label, token] = _new_node(ParseTree, (label, (), token))
                    else:
                        raise _close_error(text, trees, stack, frame)
                    siblings = stack[-1][1] if stack else trees
                    siblings.append(tree)
                    closes -= 1
            else:
                break
    if stack or pending is not None:
        raise TreeSyntaxError("unbalanced parentheses: unclosed '('", len(text))
    return trees


def read_trees(path) -> list[ParseTree]:
    """The trees of a UTF-8 file.  It is decoded whole, so a bad byte is
    reported at its position in the file; CR and CRLF line ends read as
    one "\\n", and offsets count them so."""
    with open(path, encoding="utf-8") as f:
        return parse_bracketed(f.read())
