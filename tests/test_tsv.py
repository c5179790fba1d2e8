"""The shared line rule of every tab-separated reader.

Each reader goes through ``selrestr.tsv.rows``: spaces and CR are
stripped from the ends of a line, tabs are kept, blank and ``#`` lines
are skipped, and an error in a line names ``<kind> line N``, a prefix
that only ``rows`` adds, so each reader's field errors are pinned here
byte for byte.  The fuzz
tests feed each reader text built from the characters these files are
made of and require a result or the reader's own ``ValueError``
subclass, never another exception; a result may hold no empty name or
sense class, no non-finite score and no negative count.
"""

import math
import re
import string

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import flat_counts, nodes, nouns, parents
from selrestr.evaluate import read_gold, read_labels
from selrestr.extract import ExtractionError, LemmaTable, read_triples
from selrestr.learner import read_restrictions
from selrestr.stats import read_counts
from selrestr.taxonomy import TaxonomyError, parse_lexicon, parse_taxonomy

TAX = parse_taxonomy("a\t-\nb\ta\nc\ta,b\nanimal\t-\n")


def _taxonomy(text):
    tax = parse_taxonomy(text)
    return {c: parents(tax, c) for c in nodes(tax)}


def _lexicon(text):
    lex = parse_lexicon(text, TAX)
    return {n: lex.senses(n) for n in nouns(lex)}


# kind, reader returning a comparable value, error class, one valid line
READERS = [
    ("lemma table", lambda t: LemmaTable.from_text(t)._entries, ExtractionError,
     "geese\tnoun\tgoose"),
    ("triples", read_triples, ExtractionError, "eat\t1\tdog"),
    ("counts", lambda t: flat_counts(read_counts(t)), ExtractionError, "eat\t1\tdog\t2"),
    ("restrictions", read_restrictions, ExtractionError, "eat\t1\tanimal\t0.5\t2\t3"),
    ("gold", read_gold, ExtractionError, "eat\t1\tdog\tanimal\tok"),
    ("labels", read_labels, ExtractionError, "eat\t1\tanimal\tOk\t2"),
    ("taxonomy", _taxonomy, TaxonomyError, "animal\t-"),
    ("lexicon", _lexicon, TaxonomyError, "dog\tanimal"),
]
IDS = [kind for kind, *_ in READERS]


@pytest.mark.parametrize("kind, read, error, line", READERS, ids=IDS)
class TestLineRule:
    def test_spaces_and_cr_are_stripped(self, kind, read, error, line):
        clean = read(line + "\n")
        assert read(f"  {line}  \r\n") == clean
        assert read(f" {line}\r") == clean

    def test_comment_and_blank_lines_are_skipped(self, kind, read, error, line):
        text = f"# a comment\n#\twith\ttabs\n\n   \n\t\n \t \r\n{line}\n"
        assert read(text) == read(line + "\n")

    def test_trailing_tab_is_an_empty_field(self, kind, read, error, line):
        got = line.count("\t") + 2
        with pytest.raises(error, match=rf"^{kind} line 3: expected .* fields, got {got}$"):
            read(f"# header\n\n{line}\t\n")


# test id, reader kind, a second line whose fields pass the line rule, the error
BAD_FIELDS = [
    ("restrictions-empty-verb", "restrictions", "\teat\t1\tanimal\t0.5\t2",
     "empty verb or class"),
    ("restrictions-empty-class", "restrictions", "eat\t1\t\t0.5\t2\t3",
     "empty verb or class"),
    ("restrictions-nan", "restrictions", "eat\t1\tanimal\tnan\t2\t3",
     "score must be finite, got 'nan'"),
    ("restrictions-minus-inf", "restrictions", "eat\t1\tanimal\t-inf\t2\t3",
     "score must be finite, got '-inf'"),
    ("restrictions-overflow", "restrictions", "eat\t1\tanimal\t1e999\t2\t3",
     "score must be finite, got '1e999'"),
    ("restrictions-negative-nouns", "restrictions", "eat\t1\tanimal\t0.5\t-1\t3",
     "nouns and support must be >= 0"),
    ("restrictions-negative-support", "restrictions", "eat\t1\tanimal\t0.5\t2\t-5",
     "nouns and support must be >= 0"),
    ("gold-empty-verb", "gold", "\t1\tdog", "empty verb or noun"),
    ("gold-empty-noun", "gold", "eat\t1\t\tanimal\tok", "empty verb or noun"),
    ("gold-empty-sense", "gold", "eat\t1\tdog\t\tok", "empty sense class (use - for unknown)"),
    ("labels-empty-verb", "labels", "\teat\tanimal\tOk", "empty verb or class"),
    ("labels-empty-class", "labels", "eat\t1\t\tOk\t2", "empty verb or class"),
    ("triples-bad-relation", "triples", "eat\tX\tdog", "bad relation code 'X'"),
    ("counts-bad-relation", "counts", "eat\tX\tdog\t2", "bad relation code 'X'"),
    ("gold-bad-relation", "gold", "eat\tX\tdog", "bad relation code 'X'"),
    ("labels-bad-relation", "labels", "eat\tX\tanimal\tOk", "bad relation code 'X'"),
    ("restrictions-bad-relation", "restrictions", "eat\tX\tanimal\t0.5\t2\t3",
     "bad relation code 'X'"),
    ("counts-non-numeric", "counts", "eat\t1\tdog\ttwo", "bad count 'two'"),
    ("counts-underscore", "counts", "eat\t1\tdog\t1_000", "bad count '1_000'"),
    ("counts-signed", "counts", "eat\t1\tdog\t+5", "bad count '+5'"),
    ("counts-inner-space", "counts", "eat\t1\tdog\t 5", "bad count ' 5'"),
    ("counts-non-ascii-digit", "counts", "eat\t1\tdog\t\u0665", "bad count '\u0665'"),
    ("counts-zero", "counts", "eat\t1\tdog\t0", "count must be >= 1"),
    ("labels-non-numeric", "labels", "eat\t1\tdog\tOk\tmany", "bad occurrence count 'many'"),
    ("labels-signed-count", "labels", "eat\t1\tdog\tOk\t+5", "bad occurrence count '+5'"),
    ("labels-negative-count", "labels", "eat\t1\tdog\tOk\t-5", "negative occurrence count"),
    ("labels-non-ascii-digit", "labels", "eat\t1\tdog\tOk\t\u0665",
     "bad occurrence count '\u0665'"),
    ("restrictions-non-numeric-score", "restrictions", "eat\t1\tanimal\thigh\t2\t3",
     "could not convert string to float: 'high'"),
    ("restrictions-non-numeric-nouns", "restrictions", "eat\t1\tanimal\t0.5\tx\t3",
     "bad nouns count 'x'"),
    ("restrictions-non-numeric-support", "restrictions", "eat\t1\tanimal\t0.5\t2\t3.0",
     "bad support count '3.0'"),
    ("restrictions-underscore-nouns", "restrictions", "eat\t1\tanimal\t0.5\t1_0\t3",
     "bad nouns count '1_0'"),
    ("restrictions-signed-support", "restrictions", "eat\t1\tanimal\t0.5\t2\t+3",
     "bad support count '+3'"),
    ("restrictions-inner-space", "restrictions", "eat\t1\tanimal\t0.5\t 2\t3",
     "bad nouns count ' 2'"),
    # the minus branch: a lone minus, a doubled one, a non-ASCII digit after it
    ("counts-lone-minus", "counts", "eat\t1\tdog\t-", "bad count '-'"),
    ("counts-double-minus", "counts", "eat\t1\tdog\t--5", "bad count '--5'"),
    ("counts-minus-non-ascii-digit", "counts", "eat\t1\tdog\t-\u0665",
     "bad count '-\u0665'"),
    ("labels-lone-minus", "labels", "eat\t1\tdog\tOk\t-", "bad occurrence count '-'"),
    ("labels-double-minus", "labels", "eat\t1\tdog\tOk\t--5",
     "bad occurrence count '--5'"),
    ("labels-minus-non-ascii-digit", "labels", "eat\t1\tdog\tOk\t-\u0665",
     "bad occurrence count '-\u0665'"),
    ("restrictions-lone-minus", "restrictions", "eat\t1\tanimal\t0.5\t-\t3",
     "bad nouns count '-'"),
    ("restrictions-double-minus", "restrictions", "eat\t1\tanimal\t0.5\t2\t--5",
     "bad support count '--5'"),
    ("restrictions-minus-non-ascii-digit", "restrictions", "eat\t1\tanimal\t0.5\t-\u0665\t3",
     "bad nouns count '-\u0665'"),
    # more digits than int() converts by default (4,300)
    ("counts-too-many-digits", "counts", "eat\t1\tdog\t" + "1" * 5000,
     "bad count: too many digits"),
    ("restrictions-too-many-digits", "restrictions", "eat\t1\tanimal\t0.5\t2\t" + "9" * 5000,
     "bad support count: too many digits"),
    ("labels-too-many-digits", "labels", "eat\t1\tdog\tOk\t-" + "1" * 5000,
     "bad occurrence count: too many digits"),
    # A triples line is trimmed of spaces and skipped after a leading #, so
    # extract could write a kept triple that reads back changed or not at all.
    ("lemma-leading-space", "lemma table", "ran\tverb\t run",
     "bad lemma ' run': a space at either end or a leading #"),
    ("lemma-leading-hash", "lemma table", "sat\tverb\t#sit",
     "bad lemma '#sit': a space at either end or a leading #"),
]


@pytest.mark.parametrize(
    "kind, bad, message", [c[1:] for c in BAD_FIELDS], ids=[c[0] for c in BAD_FIELDS]
)
def test_bad_field_is_an_error_naming_the_line(kind, bad, message):
    read, good = next((r, line) for k, r, _, line in READERS if k == kind)
    with pytest.raises(ExtractionError) as err:
        read(f"{good}\n{bad}\n")
    assert str(err.value) == f"{kind} line 2: {message}"


# -- fuzzing ---------------------------------------------------------------

FIELD_ALPHABET = " #-," + string.digits + string.ascii_letters
# Tokens the readers give meaning to, so that generated lines get past the
# field count and reach the per-field checks.
TOKENS = ["0", "1", "with", "Up", "noun", "verb", "ok", "parser_err", "Ok", "Noise",
          "-", "a", "b", "c", "a,b", "b,a", "a,", "dog", "2", "0.5", "-1", "nan", "inf",
          "", " "]
FIELD_COUNTS = {"gold": (3, 5), "labels": (4, 5)}
field = st.one_of(st.sampled_from(TOKENS), st.text(alphabet=FIELD_ALPHABET, max_size=6))


def texts(arities):
    width = st.one_of(st.sampled_from(arities), st.integers(min_value=0, max_value=7))
    line = width.flatmap(lambda n: st.lists(field, min_size=n, max_size=n)).map("\t".join)
    lines = st.lists(
        st.tuples(line, st.sampled_from(["\n", "\r\n", "\r", " \n", "\n#\t\n"])),
        max_size=8,
    ).map(lambda parts: "".join(a + b for a, b in parts))
    return st.one_of(st.text(alphabet="\t\r\n" + FIELD_ALPHABET, max_size=60), lines)


# What every accepted record must satisfy, for the readers with field checks.
ACCEPTED = {
    "triples": lambda r: r.verb and r.noun,
    "restrictions": lambda sr: (
        sr.verb and sr.class_id and math.isfinite(sr.score) and min(sr.n_nouns, sr.support) >= 0
    ),
    "gold": lambda g: g.record.verb and g.record.noun and g.correct_sense != "",
    "labels": lambda row: row[0] and row[2],
}


@pytest.mark.parametrize("kind, read, error, line", READERS, ids=IDS)
def test_fuzz_reader_result_or_own_error(kind, read, error, line):
    arities = FIELD_COUNTS.get(kind, (line.count("\t") + 1,))
    accepted = ACCEPTED.get(kind)

    @settings(max_examples=100, deadline=None)
    @given(text=texts(arities))
    def check(text):
        try:
            out = read(text)
            if accepted is not None:
                assert all(accepted(record) for record in out), out
        except error as exc:
            message = str(exc)
            if kind == "taxonomy" and message.startswith("cycle detected among classes: "):
                return
            m = re.match(rf"{kind} line (\d+): ", message)
            assert m, message
            assert 1 <= int(m.group(1)) <= len(text.splitlines()), message

    check()


# -- shared strings ----------------------------------------------------------


def _triples_words(text):
    return [word for r in read_triples(text) for word in (r.verb, r.noun)]


def _counts_words(text):
    table = read_counts(text)
    words = [v for v, _ in table.verb_positions()]
    for v, s in table.verb_positions():
        words.extend(table.nouns_for(v, s))
    return words + list(table.noun_total)


SHARING = [
    ("triples", lambda v, rel, n, c: f"{v}\t{rel}\t{n}", _triples_words),
    ("counts", lambda v, rel, n, c: f"{v}\t{rel}\t{n}\t{c}", _counts_words),
]
WORDS = ["eat", "drink", "dog", "water"]


@pytest.mark.parametrize("kind, line, words", SHARING, ids=[kind for kind, *_ in SHARING])
@settings(max_examples=50, deadline=None)
@given(
    lines=st.lists(
        st.tuples(st.sampled_from(WORDS), st.sampled_from(["0", "1", "with"]),
                  st.sampled_from(WORDS), st.integers(min_value=1, max_value=3)),
        min_size=1, max_size=20,
    )
)
@example(lines=[("eat", "0", "dog", 1), ("eat", "1", "dog", 2), ("dog", "with", "eat", 1)])
def test_one_object_per_distinct_verb_and_noun(kind, line, words, lines):
    # Within one call each distinct verb or noun is one string, whichever
    # field it came from; a second call shares none of them.
    text = "\n".join(line(*fields) for fields in lines)
    got = words(text)
    assert len({id(w) for w in got}) == len(set(got))
    again = words(text)
    assert {id(w) for w in got}.isdisjoint(id(w) for w in again)
