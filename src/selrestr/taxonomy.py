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
Lines follow the shared rule of ``selrestr.tsv``, whose ``rows`` adds
``taxonomy line N`` or ``lexicon line N`` to an error in a line.  A
parent that no line defines is found only after every line is read, and
that error names the line of the class that names it.
"""

from __future__ import annotations

from .tsv import columns, rows


class TaxonomyError(ValueError):
    """Malformed taxonomy or lexicon input, or a query for an unknown name."""


def _check_class_id(token: str) -> str:
    if not token:
        raise TaxonomyError("empty class id")
    # split() breaks at exactly the characters isspace() accepts, in one C pass.
    if token.split() != [token]:
        raise TaxonomyError(f"class id {token!r} contains whitespace")
    return token


def _class_ids(text: str) -> list[str]:
    """The ids of a comma-separated list, tested once as a whole for an
    empty id or any whitespace; ``_check_class_id`` then names the first
    bad id."""
    ids = text.split(",")
    if "" in ids or text.split() != [text]:
        for token in ids:
            _check_class_id(token)
    return ids


class Taxonomy:
    """A validated, immutable is-a hierarchy over class ids."""

    def __init__(self, parents: dict[str, set[str]]):
        self._parents = {c: frozenset(ps) for c, ps in parents.items()}
        self._closures: dict[str, frozenset[str]] = {}
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        """Refuse a parent that names no class, then a cycle."""
        # Kahn's algorithm; whatever cannot be peeled off lies on a cycle.
        remaining = {c: set(ps) for c, ps in self._parents.items()}
        children: dict[str, set[str]] = {c: set() for c in remaining}
        for child, ps in self._parents.items():
            for p in ps:
                siblings = children.get(p)
                if siblings is None:
                    raise TaxonomyError(f"class {child!r} names unknown parent {p!r}")
                siblings.add(child)
        queue = [c for c, ps in remaining.items() if not ps]
        seen = 0
        while queue:
            node = queue.pop()
            seen += 1
            for ch in children[node]:
                remaining[ch].discard(node)
                if not remaining[ch]:
                    queue.append(ch)
        if seen != len(remaining):
            cyclic = sorted(c for c, ps in remaining.items() if ps)
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


def _id_lists(text: str, root: str | None) -> tuple[dict[str, frozenset[str]], set[str]] | None:
    """The column path of both files: each line's first field mapped to
    the ids of its comma-separated list (none for the list ``root``),
    and every id named; None where ``rows`` must read the text, which it
    then refuses or reads to the same value.  Each distinct list is split
    once, and the lines that name it share its frozenset."""
    table: dict[str, frozenset[str]] = {}
    named: set[str] = set()
    for chunk in columns(text, 2):
        if chunk is None:
            return None
        keys, list_texts = chunk
        lists = {list_text: frozenset(list_text.split(",")) for list_text in set(list_texts)}
        if root in lists:
            lists[root] = frozenset()
        # No key or list is empty or holds whitespace, no id is empty, and
        # no key repeats.
        if "\t".join(keys).split() != keys or "\t".join(lists).split() != list(lists):
            return None
        named.update(*lists.values())
        size = len(table)
        table.update(zip(keys, map(lists.__getitem__, list_texts)))
        if len(table) != size + len(keys) or "" in named:
            return None
    return table, named


def parse_taxonomy(text: str) -> Taxonomy:
    found = _id_lists(text, "-")
    if found is not None and found[0].keys() >= found[1]:
        return Taxonomy(found[0])

    parents: dict[str, set[str]] = {}
    lines: dict[str, int] = {}

    def entry(lineno: int, fields: list[str]) -> None:
        class_id = _check_class_id(fields[0])
        if class_id in parents:
            raise TaxonomyError(
                f"duplicate class {class_id!r} (first seen on line {lines[class_id]})"
            )
        lines[class_id] = lineno
        parent_text = fields[1]
        parents[class_id] = set() if parent_text == "-" else set(_class_ids(parent_text))

    rows(text, "taxonomy", (2,), TaxonomyError, entry)
    # A class may name a parent that a later line defines, so unknown
    # parents are known only once every line is read.
    for child, ps in parents.items():
        for p in ps:
            if p not in parents:
                raise TaxonomyError(
                    f"taxonomy line {lines[child]}: class {child!r} names unknown parent {p!r}"
                )
    return Taxonomy(parents)


def parse_lexicon(text: str, taxonomy: Taxonomy) -> SenseLexicon:
    found = _id_lists(text, None)
    if found is not None and taxonomy._parents.keys() >= found[1]:
        return SenseLexicon(taxonomy, found[0])

    senses: dict[str, frozenset[str]] = {}
    lines: dict[str, int] = {}

    def entry(lineno: int, fields: list[str]) -> None:
        noun, sense_text = fields
        if not noun or noun.split() != [noun]:
            raise TaxonomyError(f"bad noun lemma {noun!r}")
        if noun in senses:
            raise TaxonomyError(
                f"duplicate lexicon entry for {noun!r} (first seen on line {lines[noun]})"
            )
        lines[noun] = lineno
        if not sense_text:
            raise TaxonomyError(f"empty sense list for noun {noun!r}")
        sense_set = frozenset(_class_ids(sense_text))
        for c in sense_set:
            if c not in taxonomy:
                raise TaxonomyError(f"noun {noun!r} names unknown class {c!r}")
        senses[noun] = sense_set

    rows(text, "lexicon", (2,), TaxonomyError, entry)
    return SenseLexicon(taxonomy, senses)


def load_taxonomy(taxonomy_text: str, lexicon_text: str) -> tuple[Taxonomy, SenseLexicon]:
    """Parse and cross-validate a taxonomy file and its companion lexicon."""
    taxonomy = parse_taxonomy(taxonomy_text)
    lexicon = parse_lexicon(lexicon_text, taxonomy)
    return taxonomy, lexicon
