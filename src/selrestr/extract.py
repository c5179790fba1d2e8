"""Verb-complement triple extraction from bracketed trees.

For every clause the extractor finds the main verb and emits one
co-occurrence triple per complement: the subject noun phrase, the first
object noun phrase, and each prepositional complement.  The relation is
coded the way the triples file writes it: ``0`` for subject, ``1`` for
object, otherwise the preposition itself in lowercase.  A PP whose
preposition lowercases to ``0`` or ``1`` would be read back as the
subject or object, so it is skipped, like a PP with no preposition.

Head finding is deliberately simple.  The head of an NP is its rightmost
noun-tagged immediate child; an NP headed by anything else (pronouns,
nested phrases, numbers) yields a discarded record rather than a guess,
and forms the morphology cannot fold to an alphabetic lemma are
discarded as lemma failures.  Discarded records stay in the output
stream with ``discard_reason`` set so that every raw extraction is
accounted for.

``extract_corpus`` makes one flat, iterative walk per tree over its
constituents, reading nodes as (label, children, token) tuples with the
tag sets bound to locals, and appends every record to one list; lemmas
are memoized per ``LemmaTable``.

``extract_file`` is the ``extract`` command's whole path from corpus file
to records.  It reads the text once and cuts it between trees
(``trees.cut``) into ``shares.count`` shares: one per CPU the process may
run on, so ``taskset`` and cpusets bound their number, but none under
``shares.MIN_SHARE`` characters.  It parses and extracts the first share
itself, and each other one in a child forked by ``shares.run``, which
sends its records back as ``marshal`` columns; the records are joined in
share order.  No option sets the number of shares, and neither the
records nor any error depend on it.  ``parse_bracketed`` and
``extract_corpus`` themselves run in one process.

The records and relations, and the triples files they are written to
and read from, live in ``triples``, which ``learn`` and ``eval`` load
without this module and the tree and share code it imports.
"""

from __future__ import annotations

import marshal
from itertools import repeat, starmap
from typing import Callable, Iterable, NamedTuple

from . import shares
from .trees import ParseTree, cut, parse_bracketed, read_text
from .triples import (
    OBJECT,
    OBJECT_CODE,
    SUBJECT,
    SUBJECT_CODE,
    ExtractionError,
    SynRel,
    TripleRecord,
    key_names,
)
from .tsv import Spec, read, token

NOUN = "noun"
VERB = "verb"

NON_NOUN_HEAD = "NonNounHead"
LEMMA_FAILURE = "LemmaFailure"

class TagSet(NamedTuple):
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
        import json

        data = json.loads(text)
        if not isinstance(data, dict):
            raise ExtractionError(f"tagset must be a JSON object, got {data!r}")
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise ExtractionError(f"unknown tagset keys: {key_names(unknown)}")
        for name, tags in data.items():
            if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
                raise ExtractionError(f"tagset key {name} must be a list of strings, got {tags!r}")
        return cls(**{name: frozenset(tags) for name, tags in data.items()})


PENN = TagSet()


class LemmaTable:
    """Lookup table (surface form, coarse POS) -> lemma; forms are case-folded.

    Every lemma, from a dict or a file, passes ``_check_lemma``."""

    def __init__(self, entries: dict[tuple[str, str], str] | None = None):
        self._entries = {}
        # lemmatize's results for this table, keyed by (form, coarse POS).
        self._memo: dict[tuple[str, str], LemmaResult] = {}
        if entries:
            for (form, pos), lemma in entries.items():
                self._entries[form.lower(), pos] = _check_lemma(lemma)

    def lookup(self, form: str, pos: str) -> str | None:
        return self._entries.get((form.lower(), pos))

    @classmethod
    def from_text(cls, text: str) -> "LemmaTable":
        """A ``form<TAB>noun|verb<TAB>lemma`` table; a later line wins."""
        return read(
            text, LEMMAS, lambda records, lines: cls({(f, pos): lemma for f, pos, lemma in records})
        )


def _check_lemma(lemma: str) -> str:
    """``lemma``, if it is not empty, has no space at either end, no
    leading ``#``, no tab and no line break: the one lemma rule of a
    table, from a file or a dict."""
    if not lemma:
        raise ExtractionError("empty lemma")
    # A triples line is trimmed of spaces and skipped after a leading #, and
    # the file is cut at line breaks and tabs, so such a lemma would be read
    # back changed, or not at all.
    if lemma.strip(" ") != lemma or lemma.startswith("#"):
        raise ExtractionError(f"bad lemma {lemma!r}: a space at either end or a leading #")
    if "\t" in lemma or lemma.splitlines() != [lemma]:
        raise ExtractionError(f"bad lemma {lemma!r}: a tab or a line break")
    return lemma


# Any form; the POS and the lemma are checked.
LEMMAS = Spec(
    "lemma table",
    ExtractionError,
    (str, token({NOUN: NOUN, VERB: VERB}, "bad POS {!r}"), _check_lemma),
    (3,),
)


# Fallback inflection stripping, tried longest suffix first.  A rule only
# fires when its stem is itself irreducible, which makes the rule-based
# path idempotent by construction.  A stem that ends in a letter no
# suffix ends in, such as "y", the one replacement, is irreducible.
_NOUN_RULES = (("ies", "y"), ("es", ""), ("s", ""))
_VERB_RULES = (("ies", "y"), ("ing", ""), ("ed", ""), ("s", ""))
_NOUN_ENDS = frozenset(suffix[-1] for suffix, _ in _NOUN_RULES)
_VERB_ENDS = frozenset(suffix[-1] for suffix, _ in _VERB_RULES)


def _strip_suffix(form: str, rules, ends: frozenset[str]) -> str:
    """``form`` with the suffix of its first rule whose stem is not empty
    and irreducible (its own result) replaced; ``form`` if there is none.

    ``ends`` holds the last letter of each suffix.  The first rule that
    matches decides at once when its stem ends in another letter.  Every
    other stem is a prefix of ``form``; prefixes are decided in one pass
    by ascending length, each from shorter ones, so a long form needs no
    recursion."""
    for suffix, replacement in rules:
        if form.endswith(suffix):
            stem = form[: len(form) - len(suffix)] + replacement
            if stem:
                if stem[-1] not in ends:
                    return stem
                break
    else:
        return form
    # By prefix length: the (stem length, replacement) of the rule that
    # fires on that prefix, or None if none does.  A "y" stem is
    # irreducible; an empty-replacement stem is if no rule fires on it.
    fired: list[tuple[int, str] | None] = [None] * (len(form) + 1)
    for k in range(1, len(form) + 1):
        for suffix, replacement in rules:
            at = k - len(suffix)
            if form.endswith(suffix, 0, k) and (replacement or at and fired[at] is None):
                fired[k] = at, replacement
                break
    rule = fired[-1]
    return form if rule is None else form[: rule[0]] + rule[1]


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
        if pos == NOUN:
            return LemmaResult(_strip_suffix(folded, _NOUN_RULES, _NOUN_ENDS), False)
        return LemmaResult(_strip_suffix(folded, _VERB_RULES, _VERB_ENDS), False)
    return LemmaResult(folded, True)


def extract_triples(
    tree: ParseTree, lemmas: LemmaTable | None = None, tags: TagSet = PENN
) -> list[TripleRecord]:
    """Emit one TripleRecord per verb-complement pair found in the tree.

    Every clause node (a clause label with a VP child) is processed
    independently, in preorder.  The verb is the rightmost verb-tagged
    leaf of the innermost VP (the first VP child, followed down through
    first VP children); the subject is the nearest NP sister before the
    first VP, the object the first NP inside the innermost VP, and each
    PP inside it with a preposition-tagged leaf and an NP child is a
    prepositional complement, coded by the first such leaf's token in
    lowercase.  A PP whose preposition lowercases to a subject or
    object code ("0", "1") is skipped, as is one with no preposition
    leaf.  Clauses with no identifiable verb yield nothing.
    """
    return extract_corpus((tree,), lemmas, tags)


def extract_corpus(
    trees: Iterable[ParseTree],
    lemmas: LemmaTable | None = None,
    tags: TagSet = PENN,
) -> list[TripleRecord]:
    """``extract_triples`` of every tree, in order, in one list.

    One flat walk per tree over constituents, in preorder; nodes are
    read as (label, children, token) tuples, and records are built
    without ``TripleRecord``'s Python-level ``__new__``.  With no table,
    lemmas come from the rules through an empty table of this call's
    own, so no memo outlives the call; nor does the table of the
    call's prepositional relations, one per code.
    """
    if lemmas is None:
        lemmas = LemmaTable()
    noun_tags, verb_tags, prep_tags, clause_labels, np_labels, vp_labels, pp_labels = tags
    memo = lemmas._memo
    relations: dict[str, SynRel] = {}
    new = tuple.__new__
    records: list[TripleRecord] = []
    append = records.append
    for tree in trees:
        stack = [] if tree[2] is not None else [tree]
        while stack:
            label, children, _ = stack.pop()
            for child in reversed(children):
                if child[2] is None:
                    stack.append(child)
            if label not in clause_labels:
                continue
            for vp in children:
                if vp[0] in vp_labels:
                    break
            else:
                continue
            inner = vp
            while True:
                for child in inner[1]:
                    if child[0] in vp_labels:
                        inner = child
                        break
                else:
                    break
            for verb in reversed(inner[1]):
                if verb[2] is not None and verb[0] in verb_tags:
                    break
            else:
                continue
            verb_lemma, verb_failed = memo.get((verb[2], VERB)) or lemmatize(
                verb[2], VERB, lemmas
            )

            complements = []
            subject = None
            for child in children:
                # vp is the first VP child, so even a leaf vp that the parse
                # shares with later children is first met at its own place.
                if child is vp:
                    break
                if child[0] in np_labels:
                    subject = child
            if subject is not None:
                complements.append((SUBJECT, subject))
            for child in inner[1]:
                if child[0] in np_labels:
                    complements.append((OBJECT, child))
                    break
            for pp in inner[1]:
                if pp[0] not in pp_labels:
                    continue
                for prep in pp[1]:
                    if prep[2] is not None and prep[0] in prep_tags:
                        break
                else:
                    continue
                for np in pp[1]:
                    if np[0] in np_labels:
                        break
                else:
                    continue
                code = prep[2].lower()
                if code != SUBJECT_CODE and code != OBJECT_CODE:
                    rel = relations.get(code) or relations.setdefault(code, SynRel(code))
                    complements.append((rel, np))

            for rel, np in complements:
                # The head: the rightmost noun-tagged leaf among the NP's children.
                for head in reversed(np[1]):
                    if head[2] is not None and head[0] in noun_tags:
                        noun_lemma, noun_failed = memo.get((head[2], NOUN)) or lemmatize(
                            head[2], NOUN, lemmas
                        )
                        reason = LEMMA_FAILURE if verb_failed or noun_failed else None
                        append(new(TripleRecord, (verb_lemma, rel, noun_lemma, reason)))
                        break
                else:
                    node = np
                    while node[2] is None:
                        node = node[1][-1]
                    append(new(TripleRecord, (verb_lemma, rel, node[2], NON_NOUN_HEAD)))
    return records


def extract_file(
    path: str, lemmas: LemmaTable, tags: TagSet, extract_corpus: Callable[..., list[TripleRecord]]
) -> list[TripleRecord]:
    """``extract_corpus(read_trees(path), lemmas, tags)``, worked out in
    shares of the text, cut between trees: the first here, and each other
    one in a forked child, which sends its records back as columns.  The
    caller passes ``extract_corpus``, so a wrapper it holds runs on the
    first share.

    A syntax error in the first share, a prefix of the text that ends
    outside any tree, is the whole parse's first error, at the same
    offset.  If a child fails, as it does on a syntax error in its share,
    the whole file is read, parsed and extracted here, so every error is
    that of one process.  ``extract_corpus`` raises nothing on trees that
    ``parse_bracketed`` made."""
    text = read_text(path)

    def here(share: slice) -> list[TripleRecord]:
        # The children are forked by now, so once its share is parsed this
        # process needs no more of the text: it is freed before extracting.
        nonlocal text
        trees, text = parse_bracketed(text[share]), None
        return extract_corpus(trees, lemmas, tags)

    def there(share: slice) -> bytes:
        return _columns(extract_corpus(parse_bracketed(text[share]), lemmas, tags))

    done = shares.run(cut(text, shares.count(len(text), shares.cpus())), here, there)
    if done is None:
        text = read_text(path)
        return here(slice(None))
    records, sent = done
    for data in sent:
        records += _records(data)
    return records


def _columns(records: list[TripleRecord]) -> bytes:
    """``records`` as ``marshal`` bytes of four columns.  ``marshal``
    takes neither a named tuple nor ``SynRel``, a ``str`` subclass, so a
    relation goes as its code."""
    verbs, rels, nouns, reasons = zip(*records) if records else ((),) * 4
    codes = {rel: rel.code for rel in set(rels)}
    return marshal.dumps((verbs, [*map(codes.__getitem__, rels)], nouns, reasons))


def _records(data: bytes) -> list[TripleRecord]:
    """The records of ``_columns`` bytes, one ``SynRel`` per code."""
    verbs, codes, nouns, reasons = marshal.loads(data)
    rels = {code: SynRel(code) for code in set(codes)}
    rows = zip(verbs, map(rels.__getitem__, codes), nouns, reasons)
    return [*starmap(tuple.__new__, zip(repeat(TripleRecord), rows))]
