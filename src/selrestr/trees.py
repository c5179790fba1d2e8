"""Reader for skeletal bracketed parse trees.

Accepts the flat s-expression style used by treebank corpora: one or
more trees per input, ``(LABEL child child ...)`` for constituents and
``(TAG token)`` for leaves.  Whitespace between tokens is free-form, so
trees may span lines.

The reader scans the text with one compiled regular expression whose
alternatives match a whole leaf ``(TAG token)``, an opening bracket with
its label, a bare bracket, or a stray atom; only constituents go through
the bracket stack.  Nodes are immutable tuples (``ParseTree``), and every
walk over them is iterative, so nesting depth is bounded by memory, not
by the interpreter's recursion limit.
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
    """A constituent (with children) or a tagged leaf (with a token)."""

    __slots__ = ()

    def __new__(cls, label: str, children: tuple["ParseTree", ...] = (), token: str | None = None):
        if not label:
            raise ValueError("empty node label")
        if bool(children) == (token is not None):
            raise ValueError(f"node {label!r} must have children or a token, not both")
        return tuple.__new__(cls, (label, children, token))

    @property
    def is_leaf(self) -> bool:
        return self.token is not None

    def __str__(self) -> str:
        parts: list[str] = []
        # Items are nodes still to print, or the ")" closing a constituent.
        stack: list = [self]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                parts.append(item)
            elif item.token is not None:
                parts.append(f"({item.label} {item.token})")
            else:
                parts.append(f"({item.label}")
                stack.append(")")
                for child in reversed(item.children):
                    stack.append(child)
                    stack.append(" ")
        return "".join(parts)


# Alternatives, tried in order: a whole leaf "(TAG token)" (groups 1 and 2),
# "(" with its label (group 1 alone), a bare bracket (group 3) and an atom
# outside any label position (group 4).  Whitespace matches none of them,
# so finditer skips it; \s is the same class as str.isspace.
_SCAN = re.compile(r"\(\s*([^\s()]+)(?:\s+([^\s()]+)\s*\))?|([()])|([^\s()]+)")

# Parser-made nodes are valid by construction and skip ParseTree's checks.
_new_node = tuple.__new__


def _close_error(open_at: int, label: str | None, children: list, atoms: list | None):
    """The error a ")" raises when its frame is not a labelled constituent
    with children only.  A one-token leaf never gets here: the leaf
    alternative takes it whole."""
    if label is None or not atoms:
        return TreeSyntaxError("empty constituent", open_at)
    if children:
        return TreeSyntaxError(f"constituent {label!r} mixes tokens and sub-constituents", open_at)
    return TreeSyntaxError(f"leaf {label!r} has more than one token", open_at)


def parse_bracketed(text: str) -> list[ParseTree]:
    """Parse every top-level tree in ``text``, preserving input order."""
    trees: list[ParseTree] = []
    # Stack frames: [open-paren offset, label or None, children, leaf tokens or None].
    stack: list[list] = []
    siblings = trees  # children of the innermost open constituent
    for m in _SCAN.finditer(text):
        label, token, bracket, atom = m.groups()
        if token is not None:
            siblings.append(_new_node(ParseTree, (label, (), token)))
        elif label is not None:
            siblings = []
            stack.append([m.start(), label, siblings, None])
        elif bracket == "(":
            siblings = []
            stack.append([m.start(), None, siblings, None])
        elif bracket == ")":
            if not stack:
                raise TreeSyntaxError("unbalanced parentheses: unexpected ')'", m.start())
            open_at, label, children, atoms = stack.pop()
            if label is None or atoms or not children:
                raise _close_error(open_at, label, children, atoms)
            siblings = stack[-1][2] if stack else trees
            siblings.append(_new_node(ParseTree, (label, tuple(children), None)))
        else:
            if not stack:
                raise TreeSyntaxError(f"token {atom!r} outside any tree", m.start())
            frame = stack[-1]
            if frame[1] is None:
                frame[1] = atom
            elif frame[3] is None:
                frame[3] = [atom]
            else:
                frame[3].append(atom)
    if stack:
        raise TreeSyntaxError("unbalanced parentheses: unclosed '('", len(text))
    return trees


def read_trees(path) -> list[ParseTree]:
    with open(path, encoding="utf-8") as f:
        return parse_bracketed(f.read())
