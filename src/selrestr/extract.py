"""Verb-complement triple extraction from bracketed trees.

For every clause the extractor finds the main verb and emits one
co-occurrence triple per complement: the subject noun phrase, the first
object noun phrase, and each prepositional complement.  The relation is
coded the way the triples file writes it: ``0`` for subject, ``1`` for
object, otherwise the preposition itself.

Head finding is deliberately simple.  The head of an NP is its rightmost
noun-tagged immediate child; an NP headed by anything else (pronouns,
nested phrases, numbers) yields a discarded record rather than a guess,
and forms the morphology cannot fold to an alphabetic lemma are
discarded as lemma failures.  Discarded records stay in the output
stream with ``discard_reason`` set so that every raw extraction is
accounted for.

Records are named tuples, and a relation is a validated ``str``
subclass, so the dict lookups keyed by relations downstream hash and
compare in C.  The tree walk is iterative over constituents only, and
lemmas are memoized per ``LemmaTable``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .trees import ParseTree
from .tsv import rows

NOUN = "noun"
VERB = "verb"

NON_NOUN_HEAD = "NonNounHead"
LEMMA_FAILURE = "LemmaFailure"

SUBJECT_CODE = "0"
OBJECT_CODE = "1"


class ExtractionError(ValueError):
    """Malformed extractor input (lemma table or triples file)."""


class SynRel(str):
    """Syntactic relation between a verb and a complement head.

    ``code`` is "0" (subject), "1" (object) or a lowercase preposition.
    A relation is its code as a ``str`` subclass, so hashing, equality
    and ordering run in C and equal a comparison of the codes.
    """

    __slots__ = ()

    def __new__(cls, code: str) -> "SynRel":
        if code not in (SUBJECT_CODE, OBJECT_CODE) and (
            not code or code != code.lower() or any(ch.isspace() for ch in code)
        ):
            raise ValueError(f"bad relation code {code!r}")
        return str.__new__(cls, code)

    @classmethod
    def prep(cls, preposition: str) -> "SynRel":
        return cls(preposition.lower())

    @property
    def code(self) -> str:
        return str.__str__(self)

    def __repr__(self) -> str:
        return f"SynRel(code={self.code!r})"


SUBJECT = SynRel(SUBJECT_CODE)
OBJECT = SynRel(OBJECT_CODE)


class TripleRecord(NamedTuple):
    """One (verb, relation, noun) observation; discards carry their reason."""

    verb: str
    rel: SynRel
    noun: str
    sentence_id: int = 0
    discard_reason: str | None = None

    @property
    def kept(self) -> bool:
        return self.discard_reason is None


@dataclass(frozen=True)
class TagSet:
    """Label and tag inventories driving clause detection and head finding."""

    noun_tags: frozenset[str] = frozenset({"NN", "NNS", "NNP", "NNPS"})
    verb_tags: frozenset[str] = frozenset({"VB", "VBD", "VBG", "VBN", "VBP", "VBZ"})
    prep_tags: frozenset[str] = frozenset({"IN", "TO"})
    clause_labels: frozenset[str] = frozenset({"S", "SINV"})
    np_labels: frozenset[str] = frozenset({"NP"})
    vp_labels: frozenset[str] = frozenset({"VP"})
    pp_labels: frozenset[str] = frozenset({"PP"})

    @classmethod
    def from_json(cls, text: str) -> "TagSet":
        """A JSON object mapping some of the field names to lists of
        strings; the other fields keep their Penn defaults."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ExtractionError(f"tagset must be a JSON object, got {data!r}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ExtractionError(f"unknown tagset keys: {', '.join(sorted(unknown))}")
        for name, tags in data.items():
            if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
                raise ExtractionError(f"tagset key {name} must be a list of strings, got {tags!r}")
        return cls(**{name: frozenset(tags) for name, tags in data.items()})

    @classmethod
    def from_file(cls, path) -> "TagSet":
        with open(path, encoding="utf-8") as f:
            return cls.from_json(f.read())


PENN = TagSet()


class LemmaTable:
    """Lookup table (surface form, coarse POS) -> lemma; forms are case-folded."""

    def __init__(self, entries: dict[tuple[str, str], str] | None = None):
        self._entries = {}
        # lemmatize's results for this table, keyed by (form, coarse POS).
        self._memo: dict[tuple[str, str], LemmaResult] = {}
        if entries:
            for (form, pos), lemma in entries.items():
                self._entries[form.lower(), pos] = lemma

    def lookup(self, form: str, pos: str) -> str | None:
        return self._entries.get((form.lower(), pos))

    def __len__(self) -> int:
        return len(self._entries)

    @classmethod
    def from_text(cls, text: str) -> "LemmaTable":
        entries: dict[tuple[str, str], str] = {}
        for lineno, (form, pos, lemma) in rows(text, "lemma table", (3,), ExtractionError):
            if pos not in (NOUN, VERB):
                raise ExtractionError(f"lemma table line {lineno}: bad POS {pos!r}")
            if not lemma:
                raise ExtractionError(f"lemma table line {lineno}: empty lemma")
            entries[form.lower(), pos] = lemma
        return cls(entries)

    @classmethod
    def from_file(cls, path) -> "LemmaTable":
        with open(path, encoding="utf-8") as f:
            return cls.from_text(f.read())


EMPTY_LEMMA_TABLE = LemmaTable()

# Fallback inflection stripping, tried longest suffix first.  A rule only
# fires when its stem is itself irreducible, which makes the rule-based
# path idempotent by construction.
_NOUN_RULES = (("ies", "y"), ("es", ""), ("s", ""))
_VERB_RULES = (("ies", "y"), ("ing", ""), ("ed", ""), ("s", ""))


def _strip_suffix(form: str, rules) -> str:
    for suffix, replacement in rules:
        if form.endswith(suffix):
            stem = form[: -len(suffix)] + replacement
            if stem and _strip_suffix(stem, rules) == stem:
                return stem
    return form


class LemmaResult(NamedTuple):
    lemma: str
    failed: bool


def lemmatize(form: str, pos: str, table: LemmaTable) -> LemmaResult:
    """Case-folded table lookup with suffix-stripping fallback.

    Forms containing non-alphabetic characters that miss the table are
    returned folded but flagged as failures.  The result is a pure
    function of (form, POS, table) and is memoized on the table.
    """
    key = (form, pos)
    result = table._memo.get(key)
    if result is None:
        result = table._memo[key] = _lemmatize(form, pos, table)
    return result


def _lemmatize(form: str, pos: str, table: LemmaTable) -> LemmaResult:
    if pos not in (NOUN, VERB):
        raise ValueError(f"bad coarse POS {pos!r}")
    folded = form.lower()
    hit = table.lookup(folded, pos)
    if hit is not None:
        return LemmaResult(hit, False)
    if folded.isalpha():
        rules = _NOUN_RULES if pos == NOUN else _VERB_RULES
        return LemmaResult(_strip_suffix(folded, rules), False)
    return LemmaResult(folded, True)


def np_head(np: ParseTree, tags: TagSet = PENN) -> tuple[str, str] | None:
    """Surface form and tag of the NP's head, or None when the rightmost
    noun-tagged leaf is missing at the top level of the phrase."""
    for child in reversed(np.children):
        if child.token is not None and child.label in tags.noun_tags:
            return child.token, child.label
    return None


def _rightmost_leaf_token(tree: ParseTree) -> str:
    node = tree
    while not node.is_leaf:
        node = node.children[-1]
    return node.token


def _innermost_vp(vp: ParseTree, tags: TagSet) -> ParseTree:
    node = vp
    while True:
        nested = [c for c in node.children if c.label in tags.vp_labels]
        if not nested:
            return node
        node = nested[0]


def _first(children: tuple[ParseTree, ...], labels: frozenset[str]) -> ParseTree | None:
    for child in children:
        if child.label in labels:
            return child
    return None


def _verb_leaf(vp: ParseTree, tags: TagSet) -> ParseTree | None:
    for child in reversed(vp.children):
        if child.token is not None and child.label in tags.verb_tags:
            return child
    return None


# Relation of each preposition token seen, shared by all records.
_PREP_RELS: dict[str, SynRel] = {}


def extract_triples(
    tree: ParseTree,
    lemmas: LemmaTable = EMPTY_LEMMA_TABLE,
    tags: TagSet = PENN,
    sentence_id: int = 0,
) -> list[TripleRecord]:
    """Emit one TripleRecord per verb-complement pair found in the tree.

    Every clause node (a clause label with a VP child) is processed
    independently, in preorder: subject from the nearest NP sister before
    the VP, the first NP inside the innermost VP as object, and each PP
    inside it as a prepositional complement.  Clauses with no
    identifiable verb yield nothing.  The walk is iterative and visits
    constituents only, since a leaf is never a clause.
    """
    records: list[TripleRecord] = []
    stack = [] if tree.is_leaf else [tree]
    while stack:
        clause = stack.pop()
        for child in reversed(clause.children):
            if child.token is None:
                stack.append(child)
        if clause.label not in tags.clause_labels:
            continue
        vp = _first(clause.children, tags.vp_labels)
        if vp is None:
            continue
        inner = _innermost_vp(vp, tags)
        verb = _verb_leaf(inner, tags)
        if verb is None:
            continue
        verb_lemma, verb_failed = lemmatize(verb.token, VERB, lemmas)

        def emit(rel: SynRel, np: ParseTree) -> None:
            head = np_head(np, tags)
            if head is None:
                records.append(
                    TripleRecord(
                        verb_lemma, rel, _rightmost_leaf_token(np), sentence_id, NON_NOUN_HEAD
                    )
                )
                return
            noun_lemma, noun_failed = lemmatize(head[0], NOUN, lemmas)
            reason = LEMMA_FAILURE if (verb_failed or noun_failed) else None
            records.append(TripleRecord(verb_lemma, rel, noun_lemma, sentence_id, reason))

        subject_np = None
        for child in clause.children:
            if child is vp:
                break
            if child.label in tags.np_labels:
                subject_np = child
        if subject_np is not None:
            emit(SUBJECT, subject_np)

        object_np = _first(inner.children, tags.np_labels)
        if object_np is not None:
            emit(OBJECT, object_np)

        for child in inner.children:
            if child.label not in tags.pp_labels:
                continue
            prep = next(
                (c for c in child.children if c.token is not None and c.label in tags.prep_tags),
                None,
            )
            pp_np = _first(child.children, tags.np_labels)
            if prep is None or pp_np is None:
                continue
            rel = _PREP_RELS.get(prep.token)
            if rel is None:
                rel = _PREP_RELS[prep.token] = SynRel.prep(prep.token)
            emit(rel, pp_np)
    return records


def extract_corpus(
    trees: Iterable[ParseTree],
    lemmas: LemmaTable = EMPTY_LEMMA_TABLE,
    tags: TagSet = PENN,
) -> list[TripleRecord]:
    records: list[TripleRecord] = []
    for sentence_id, tree in enumerate(trees):
        records.extend(extract_triples(tree, lemmas, tags, sentence_id))
    return records


# -- triples files -------------------------------------------------------


def format_triple(record: TripleRecord) -> str:
    return f"{record.verb}\t{record.rel.code}\t{record.noun}"


def write_triples(records: Iterable[TripleRecord], f) -> None:
    """Write kept records, one ``verb<TAB>rel<TAB>noun`` line each."""
    for r in records:
        if not r.kept:
            raise ValueError("discarded record in triples output; write it to the sidecar")
        f.write(format_triple(r) + "\n")


def write_discards(records: Iterable[TripleRecord], f) -> None:
    for r in records:
        if r.kept:
            raise ValueError("kept record in discard sidecar")
        f.write(f"{format_triple(r)}\t{r.discard_reason}\n")


def read_triples(text: str) -> list[TripleRecord]:
    """Parse a triples file; each line becomes a kept record.

    Records share one ``SynRel`` per distinct relation code."""
    records: list[TripleRecord] = []
    rels: dict[str, SynRel] = {}
    for lineno, (verb, rel_code, noun) in rows(text, "triples", (3,), ExtractionError):
        if not verb or not noun:
            raise ExtractionError(f"triples line {lineno}: empty verb or noun")
        rel = rels.get(rel_code)
        if rel is None:
            try:
                rel = rels[rel_code] = SynRel(rel_code)
            except ValueError as exc:
                raise ExtractionError(f"triples line {lineno}: {exc}") from None
        records.append(TripleRecord(verb, rel, noun, len(records)))
    return records
