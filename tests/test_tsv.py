"""The shared line rule of every tab-separated reader.

``selrestr.tsv.rows`` defines the rule: spaces and CR are stripped from
the ends of a line, tabs are kept, blank and ``#`` lines are skipped,
and an error in a line names ``<kind> line N``, a prefix that only
``selrestr.tsv`` adds, so each reader's field errors are pinned here
byte for byte.  Every reader is a spec read by ``tsv.read``, which reads
plain text column by column first (``tsv.columns``) and everything else
through ``rows``: each reader's value or error must equal what ``rows``
alone gives, on generated text and on every trigger of the fallback,
and a clean file must never reach ``rows``.  The fuzz tests feed each reader
text built from the characters these files are made of and require a
result or the reader's own ``ValueError`` subclass, never another
exception; a result may hold no empty name or sense class, no
non-finite score and no negative count.
"""

import math
import random
import re
import string
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import flat_counts, nodes, nouns, parents
from selrestr import tsv
from selrestr.cli import run
from selrestr.evaluate import read_gold, read_labels
from selrestr.extract import LemmaTable
from selrestr.restrictions import read_restrictions
from selrestr.stats import read_counts
from selrestr.taxonomy import TaxonomyError, parse_lexicon, parse_taxonomy
from selrestr.triples import ExtractionError, read_triples
from worlds import lexicon_text, paper_world, taxonomy_text, triples_text

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
    # field it came from; a second call shares none of them.  CRLF line
    # breaks send the text to ``rows``, which must share the same way.
    for brk in ("\n", "\r\n"):
        text = brk.join(line(*fields) for fields in lines)
        got = words(text)
        assert len({id(w) for w in got}) == len(set(got))
        again = words(text)
        assert {id(w) for w in got}.isdisjoint(id(w) for w in again)


# -- the column path ---------------------------------------------------------

def _outcome(read, text):
    try:
        return "value", read(text)
    except Exception as exc:
        return "error", type(exc), str(exc)


# Two valid lines per reader; the lexicon reads against TAX.
GOOD = {
    "lemma table": ("geese\tnoun\tgoose", "ran\tverb\trun"),
    "triples": ("eat\t1\tdog", "drink\twith\twater"),
    "counts": ("eat\t1\tdog\t2", "drink\twith\twater\t1"),
    "restrictions": ("eat\t1\tanimal\t0.5\t2\t3", "drink\t0\tb\t-1.25\t0\t10"),
    "gold": ("eat\t1\tdog\tanimal\tok", "drink\twith\twater\t-\tparser_err"),
    "labels": ("eat\t1\tanimal\tOk\t2", "drink\t0\tb\tNoise\t0"),
    "taxonomy": ("a\t-", "b\ta"),
    "lexicon": ("dog\tanimal", "cat\ta,b"),
}
# Line i of a clean file several chunks long.
LONG_LINE = {
    "lemma table": lambda i: f"f{i}\t{('noun', 'verb')[i % 2]}\tl{i % 50}",
    "triples": lambda i: f"v{i % 7}\t1\tn{i}",
    "counts": lambda i: f"v{i % 7}\t{i % 3}\tn{i % 500}\t{i % 4 + 1}",
    "restrictions": lambda i: f"v{i % 7}\t0\tc{i}\t0.5\t{i}\t{i}",
    "gold": lambda i: f"v{i % 7}\twith\tn{i}\t{('-', 'c')[i % 2]}\t{('ok', 'lemma_err')[i % 2]}",
    "labels": lambda i: f"v{i % 7}\t0\tc{i}\tUpAbs\t{i % 9}",
    "taxonomy": lambda i: f"c{i}\t-" if i == 0 else f"c{i}\tc{i // 2}",
    "lexicon": lambda i: f"n{i}\ta,c",
}


def long_text(kind):
    """A clean file of ``kind`` several chunks long."""
    return "".join(LONG_LINE[kind](i) + "\n" for i in range(3 * tsv.CHUNK // 10))


def triggers(kind):
    """Texts that some line or check sends from the column path to ``rows``,
    and clean texts around them."""
    a, b = GOOD[kind]
    arity = a.count("\t") + 1
    long = long_text(kind)
    cases = [
        f"{a}\n{b}\n",  # clean
        f"# a header\n#\tof tabs\n{a}\n{b}",  # clean, no final line break
        f"{a} \n{b}\n",  # a space at a line end
        f" {a}\n{b}\n",  # ... and at a line start
        f"{a}\r\n{b}\r\n",  # CRLF
        f"{a}\n# a comment\n{b}\n",  # a # line in the middle
        f"{a}\n\n{b}\n",  # a blank line
        f"{a}\n" + "\t".join(["\u3000"] * arity) + f"\n{b}\n",  # whitespace only
        f"{a}\n" + "\t" * (arity - 1) + f"\n{b}\n",  # empty fields only
        f"{a}\tx\n" + b.rpartition("\t")[0] + "\n",  # one field more, then one fewer
        f"{a}\n{a}\n",  # a duplicate
        long,  # more than one chunk
        long + f"{a} \n",  # ... with a trigger in the last chunk
    ]
    # A line break other than LF, which starts a line of one field, in a data
    # line or in a header line.
    for brk in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        cases += [f"{a}\nx{brk}{b}\n", f"# a header{brk}{a}\n{b}\n"]
    if kind == "restrictions":
        cases += [
            f"{a}\neat\t1\tanimal\t{score}\t2\t3\n" for score in ("inf", "-inf", "nan", "1e999")
        ]
        cases += [
            f"{a}\neat\t1\tanimal\t0.5\t{count}\t3\n"
            for count in ("+5", "1_000", "-0", "-1", "\u0665", "1" * 5000)
        ]
        cases.append(f"{a}\neat\t1\tanimal\t 0.5 \t2\t3\n")
    if kind == "triples":
        cases += [f"{a}\neat\tX\tdog\n", f"{a}\neat\t\tdog\n", f"{a}\neat\t1\t\n"]
    if kind == "counts":
        cases += [f"{a}\neat\t1\tdog\t{count}\n" for count in ("0", "-1", "+5")]
        cases.append(f"{a}\n{b}\n{a}\n")  # a repeated key: its counts add up
    if kind == "gold":
        cases += [
            f"{a}\neat\t1\tdog\n{b}\n",  # 5, 3 and 5 fields
            "eat\t1\tdog\n" + f"{a}\n",  # 3, then 5 fields
            f"{a}\neat\t1\tdog\tanimal\tmaybe\n",  # a bad status
        ]
    if kind == "labels":
        cases += [
            f"{a}\n{b}\neat\t1\tanimal\tNoise\n",  # a duplicate, with no count
            f"{a}\neat\t1\tc\tOk\t-1\n",  # a negative count
        ]
    if kind == "lemma table":
        cases += [
            f"{a}\nran\tadj\trun\n",  # a bad POS
            f"{a}\n{b}\ngeese\tnoun\tgeese\n",  # a later line wins
        ]
    if kind == "taxonomy":
        cases += [
            "b\ta\na\t-\n",  # a parent defined on a later line
            "a\t-\nb\tz\n",  # an unknown parent
            "a\tb\nb\ta\n",  # a cycle
            "a\t-\nb\ta,\n",  # an empty parent id
            "a\t-\n-\ta\nb\ta,-\n",  # a class named -
            long + "c1\tc0\n",  # a duplicate in a later chunk
        ]
    if kind == "lexicon":
        cases += [
            "dog\tzebra\n",  # an unknown sense
            "dog\ta,\n",  # an empty sense id
            "dog\ta a\n",  # a sense list with a space
            "dog\t-\n",  # - is no class here
            long + "n1\tb\n",  # a duplicate in a later chunk
        ]
    return cases


@pytest.mark.parametrize("kind, read, error, line", READERS, ids=IDS)
def test_column_path_equals_rows(kind, read, error, line):
    # The value, or the exception class and message, that each reader gives
    # equals what rows alone gives with the column recognizer forced off.
    arity = line.count("\t") + 1
    plain = st.lists(st.lists(field, min_size=arity, max_size=arity).map("\t".join), max_size=8)
    lines = texts(FIELD_COUNTS.get(kind, (arity,)))

    @settings(max_examples=150, deadline=None)
    @given(text=st.one_of(lines, plain.map(lambda lines: "".join(x + "\n" for x in lines))))
    def check(text):
        got = _outcome(read, text)
        with mock.patch.object(tsv, "columns", side_effect=ValueError):
            assert _outcome(read, text) == got

    for text in triggers(kind):
        check = example(text=text)(check)
    check()


FIRST_FAULT = [
    ("taxonomy", "a\t-\na\t-\n\tb\n",
     "taxonomy line 2: duplicate class 'a' (first seen on line 1)"),
    ("lexicon", "dog\tzebra\ncat\ta,\n", "lexicon line 1: noun 'dog' names unknown class 'zebra'"),
    ("lexicon", "dog\t\ncat\tb c\n", "lexicon line 1: empty sense list for noun 'dog'"),
    ("labels", "v\t1\tc\tOk\nv\t1\tc\tNoise\nv\t1\td\tOk\tx\n",
     "labels line 2: duplicate label for (v, 1, c)"),
    # An unknown parent may be defined by a later line, so it waits for the
    # whole file: a bad field on a later line is named first.
    ("taxonomy", "a\tz\n\tb\n", "taxonomy line 2: empty class id"),
]


@pytest.mark.parametrize(
    "kind, text, message", FIRST_FAULT,
    ids=["duplicate class", "unknown class", "empty senses", "duplicate label", "unknown parent"],
)
def test_the_first_fault_in_file_order_is_named(kind, text, message):
    # A fault between lines, such as a duplicate, is named before a bad
    # field on a later line, on both paths.
    read = dict((k, r) for k, r, *_ in READERS)[kind]
    for path in (text, text.replace("\n", "\r\n")):
        with pytest.raises(ValueError) as err:
            read(path)
        assert str(err.value) == message


class TestNoFallbackOnCleanFiles:
    """A clean file is read column by column: ``rows`` is never called, so
    a recognizer that refused plain text would fail here, not just be slow."""

    def test_generated_files(self, tmp_path, capsys):
        parents_, senses, triples = paper_world(
            random.Random(0), n_classes=8000, n_nouns=5000, n_triples=8000, n_verbs=20
        )
        files = {
            "triples": triples_text(triples),
            "taxonomy": taxonomy_text(parents_),
            "lexicon": lexicon_text(senses),
        }
        assert min(len(text) for text in files.values()) > tsv.CHUNK
        for name, text in files.items():
            (tmp_path / f"{name}.tsv").write_text(text)
        argv = [f"--{name}={tmp_path / name}.tsv" for name in files]
        assert run(["learn", *argv, f"--out={tmp_path / 'srs.tsv'}"]) == 0
        srs = (tmp_path / "srs.tsv").read_text()
        assert srs.startswith("# ") and srs.count("\n") > 1000

        with mock.patch.object(tsv, "rows", wraps=tsv.rows) as rows:
            read_triples(files["triples"])
            tax = parse_taxonomy(files["taxonomy"])
            parse_lexicon(files["lexicon"], tax)
            read_restrictions(srs)
        assert rows.call_count == 0

    @pytest.mark.parametrize("kind, read, error, line", READERS, ids=IDS)
    def test_long_file_of_each_kind(self, kind, read, error, line):
        text = long_text(kind)
        assert len(text) > tsv.CHUNK
        with mock.patch.object(tsv, "rows", wraps=tsv.rows) as rows:
            read(text)
        assert rows.call_count == 0
