"""Hyponymy taxonomy and noun sense lexicon.

The taxonomy is a DAG of semantic classes: each class may have several
parents (multiple inheritance) and the graph may have several roots.  A
class is identified by an opaque string id; what it *means* is given
extensionally by the lexicon, which maps each noun lemma to the set of
classes naming its senses.  An ambiguous noun simply has several sense
classes.

File formats (UTF-8, tab-separated, ``#`` starts a comment line):

  taxonomy:  <class_id>\\t<comma-separated parent ids, or "-" for a root>
  lexicon:   <noun_lemma>\\t<comma-separated class_ids>

Both structures are read-only once loaded.  Hypernym closures are
memoized on the taxonomy, and each noun's ``sense_hits`` table on the
lexicon; class membership and every class sum read that one table.
Both files are a spec read by ``tsv.read``, which adds ``taxonomy line
N`` or ``lexicon line N`` to an error.  Their field kinds check each
class id and noun.  Their ``check`` functions find the faults between
lines in file order: a duplicate class or noun, a noun with no sense or
a sense that is no class.  A parent that no line defines is found once
the whole taxonomy is read, as a later line may define it, and is named
at the line of the class that names it.  Of several unknown parents or
senses on one line, the one written first is named (``_first_written``).
"""

from __future__ import annotations

from typing import Sequence

from .tsv import Kind, RecordError, Spec, name, read


class TaxonomyError(ValueError):
    """Malformed taxonomy or lexicon input, or a query for an unknown name."""


def _check_class_id(token: str) -> str:
    """The field kind of a class id: not empty, and no whitespace."""
    if not token:
        raise TaxonomyError("empty class id")
    # split() breaks at exactly the characters isspace() accepts, in one C pass.
    if token.split() != [token]:
        raise TaxonomyError(f"class id {token!r} contains whitespace")
    return token


def _id_list(none: str) -> Kind:
    """The field kind of a comma-separated list of class ids, as a
    frozenset; the list ``none`` names no id."""

    def check(text: str) -> frozenset[str]:
        if text == none:
            return frozenset()
        ids = text.split(",")
        # One C pass checks the whole list; only when it finds a fault are
        # the ids checked one by one, so that the first bad one is named.
        if "" in ids or text.split() != [text]:
            ids = map(_check_class_id, ids)
        return frozenset(ids)

    return check


class Taxonomy:
    """A validated, immutable is-a hierarchy over class ids."""

    def __init__(self, parents: dict[str, set[str]]):
        self._parents = {c: frozenset(ps) for c, ps in parents.items()}
        self._closures: dict[str, frozenset[str]] = {}
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        """Refuse a parent that names no class, then a cycle."""
        # Kahn's algorithm over each class's count of parents not yet
        # peeled off; whatever cannot be peeled off lies on a cycle.
        remaining = {c: len(ps) for c, ps in self._parents.items()}
        children: dict[str, list[str]] = {c: [] for c in remaining}
        for child, ps in self._parents.items():
            for p in ps:
                siblings = children.get(p)
                if siblings is None:
                    raise TaxonomyError(f"class {child!r} names unknown parent {p!r}")
                siblings.append(child)
        queue = [c for c, n in remaining.items() if not n]
        seen = 0
        while queue:
            node = queue.pop()
            seen += 1
            for ch in children[node]:
                remaining[ch] -= 1
                if not remaining[ch]:
                    queue.append(ch)
        if seen != len(remaining):
            cyclic = sorted(c for c, n in remaining.items() if n)
            raise TaxonomyError(f"cycle detected among classes: {', '.join(cyclic)}")

    # -- queries ---------------------------------------------------------

    def __contains__(self, class_id: str) -> bool:
        return class_id in self._parents

    def hypernym_closure(self, class_id: str) -> frozenset[str]:
        """The class itself plus all its ancestors, at every level."""
        cached = self._closures.get(class_id)
        if cached is not None:
            return cached
        parents = self._parents
        if class_id not in parents:
            raise TaxonomyError(f"unknown class {class_id!r}")
        # Iterative walk: deep chains must not exhaust the call stack.
        closure = {class_id}
        frontier = [class_id]
        while frontier:
            for p in parents[frontier.pop()]:
                if p in closure:
                    continue
                ancestor_closure = self._closures.get(p)
                if ancestor_closure is not None:
                    closure |= ancestor_closure
                else:
                    closure.add(p)
                    frontier.append(p)
        result = frozenset(closure)
        self._closures[class_id] = result
        return result

    def related(self, a: str, b: str) -> bool:
        """True iff the classes are linked by hyperonymy in either direction;
        an unknown class raises ``TaxonomyError``."""
        return b in self.hypernym_closure(a) or a in self.hypernym_closure(b)


class SenseLexicon:
    """Noun lemma -> sense classes, bound to the taxonomy it was validated against.

    The one per-noun memo is ``sense_hits``; a noun is in a class iff the
    class is a key of its table.  Every noun has at least one sense: the
    sense estimator divides a noun's count among its senses."""

    def __init__(self, taxonomy: Taxonomy, senses: dict[str, frozenset[str]]):
        if not all(senses.values()):
            noun = next(noun for noun, classes in senses.items() if not classes)
            raise TaxonomyError(f"empty sense list for noun {noun!r}")
        self.taxonomy = taxonomy
        self._senses = senses
        self._hits: dict[str, dict[str, int]] = {}

    def __contains__(self, noun: str) -> bool:
        return noun in self._senses

    def senses(self, noun: str) -> frozenset[str]:
        try:
            return self._senses[noun]
        except KeyError:
            raise TaxonomyError(f"unknown noun {noun!r}") from None

    def sense_hits(self, noun: str) -> dict[str, int]:
        """Each class at or above some sense of the noun, mapped to the
        number of the noun's senses at or below it; memoized."""
        hits = self._hits.get(noun)
        if hits is None:
            hits = self._hits[noun] = {}
            for s in self.senses(noun):
                for c in self.taxonomy.hypernym_closure(s):
                    hits[c] = hits.get(c, 0) + 1
        return hits


TAXONOMY = Spec("taxonomy", TaxonomyError, (_check_class_id, _id_list("-")), (2,))
_NOUN = name("bad noun lemma {!r}", "bad noun lemma {!r}")
LEXICON = Spec("lexicon", TaxonomyError, (_NOUN, _id_list("")), (2,))


def _unique_classes(records: list[tuple[str, frozenset[str]]], lines: Sequence[int]) -> None:
    if len(dict(records)) < len(records):
        first: dict[str, int] = {}
        for i, (class_id, _) in enumerate(records):
            j = first.setdefault(class_id, i)
            if j != i:
                raise RecordError(
                    i, f"duplicate class {class_id!r} (first seen on line {lines[j]})"
                )


def _first_written(ids: frozenset[str], text: str, lineno: int) -> str:
    """The one of ``ids`` that line ``lineno`` of ``text`` writes first in
    its id list, the second field: a frozenset's order changes with the
    string hash seed of the process, so an error would name any one."""
    written = text.splitlines()[lineno - 1].strip(" ").split("\t")[1].split(",")
    return min(ids, key=written.index)


def parse_taxonomy(text: str) -> Taxonomy:
    def build(records: list[tuple[str, frozenset[str]]], lines: Sequence[int]) -> Taxonomy:
        parents = dict(records)
        # A class may name a parent that a later line defines.
        if not parents.keys() >= set().union(*parents.values()):
            for i, (child, ps) in enumerate(parents.items()):
                unknown = ps - parents.keys()
                if unknown:
                    p = _first_written(unknown, text, lines[i])
                    raise RecordError(i, f"class {child!r} names unknown parent {p!r}")
        return Taxonomy(parents)

    return read(text, TAXONOMY, build, check=_unique_classes)


def parse_lexicon(text: str, taxonomy: Taxonomy) -> SenseLexicon:
    known = taxonomy._parents.keys()

    def check(records: list[tuple[str, frozenset[str]]], lines: Sequence[int]) -> None:
        senses = dict(records)
        if len(senses) < len(records) or not (
            all(senses.values()) and known >= set().union(*senses.values())
        ):
            # The first record at fault, in file order.
            first: dict[str, int] = {}
            for i, (noun, classes) in enumerate(records):
                j = first.setdefault(noun, i)
                if j != i:
                    raise RecordError(
                        i, f"duplicate lexicon entry for {noun!r} (first seen on line {lines[j]})"
                    )
                if not classes:
                    raise RecordError(i, f"empty sense list for noun {noun!r}")
                unknown = classes - known
                if unknown:
                    c = _first_written(unknown, text, lines[i])
                    raise RecordError(i, f"noun {noun!r} names unknown class {c!r}")

    return read(
        text, LEXICON, lambda records, _: SenseLexicon(taxonomy, dict(records)), check=check
    )


def load_taxonomy(taxonomy_text: str, lexicon_text: str) -> tuple[Taxonomy, SenseLexicon]:
    """Parse and cross-validate a taxonomy file and its companion lexicon."""
    taxonomy = parse_taxonomy(taxonomy_text)
    lexicon = parse_lexicon(lexicon_text, taxonomy)
    return taxonomy, lexicon
