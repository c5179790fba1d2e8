"""Builders, checks and writers that only the tests use, over package objects."""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from selrestr.stats import CountsTable, EstimatorKind, ScoreKind, Scorer
from selrestr.taxonomy import SenseLexicon, Taxonomy
from selrestr.trees import ParseTree


def leaf(label: str, token: str) -> ParseTree:
    return ParseTree(label, token=token)


def node(label: str, *children: ParseTree) -> ParseTree:
    return ParseTree(label, children=tuple(children))


def subtrees(tree: ParseTree) -> Iterator[ParseTree]:
    """All nodes in preorder, ``tree`` included; iterative, so deep trees work."""
    stack = [tree]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(reversed(t.children))


def tokens(tree: ParseTree) -> list[str]:
    return [t.token for t in subtrees(tree) if t.token is not None]


def bracketed(tree: ParseTree) -> str:
    """``tree`` as one line of bracketed text, which ``parse_bracketed``
    reads back as ``tree``; iterative, so deep trees work."""
    parts: list[str] = []
    # Items are nodes still to print, or the text between them.
    stack: list = [tree]
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


def parents(taxonomy: Taxonomy, class_id: str) -> frozenset[str]:
    """The direct parents of a class."""
    return taxonomy._parents[class_id]


def nodes(taxonomy: Taxonomy) -> frozenset[str]:
    """Every class of the taxonomy."""
    return frozenset(taxonomy._parents)


def nouns(lexicon: SenseLexicon) -> frozenset[str]:
    """Every noun of the lexicon."""
    return frozenset(lexicon._senses)


def score(
    scorer: Scorer, kind: ScoreKind, v, s, c: str, est: EstimatorKind = EstimatorKind.RAW
) -> float:
    """The score of one class, through ``Scorer.scores``."""
    return scorer.scores(kind, v, s, (c,), est)[0]


def check_partial_order(taxonomy, classes: Iterable[str] | None = None) -> bool:
    """Exhaustively verify reflexivity, antisymmetry and transitivity of
    "``a`` is ``b`` or a hypernym of ``b``" over the given classes
    (defaults to all).

    Quadratic-to-cubic in the class count.
    """
    cs = sorted(classes) if classes is not None else sorted(nodes(taxonomy))
    leq = {(a, b): a in taxonomy.hypernym_closure(b) for a in cs for b in cs}
    for a in cs:
        if not leq[a, a]:
            return False
    for a in cs:
        for b in cs:
            if a != b and leq[a, b] and leq[b, a]:
                return False
            if not leq[a, b]:
                continue
            for c in cs:
                if leq[b, c] and not leq[a, c]:
                    return False
    return True


def flat_counts(table: CountsTable) -> dict:
    """The table's counts as flat ``(verb, position, noun) -> count``."""
    return {
        (v, s, n): c for v, s in table.verb_positions() for n, c in table.nouns_for(v, s).items()
    }


def lexicon_misses(table, lexicon) -> set[str]:
    """Observed nouns with no lexicon entry (they never support a class)."""
    return {n for n in table.noun_total if n not in lexicon}


def write_restrictions_jsonl(restrictions, f) -> None:
    for sr in restrictions:
        f.write(
            json.dumps(
                {
                    "verb": sr.verb,
                    "rel": sr.rel.code,
                    "class": sr.class_id,
                    "score": round(0.0 if sr.score == 0.0 else sr.score, 6),
                    "n_nouns": sr.n_nouns,
                    "support": sr.support,
                }
            )
            + "\n"
        )
