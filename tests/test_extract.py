"""Extractor unit tests: relations, tag sets, morphology, head finding,
clause walking, and the triples/discards file formats."""

import gc
import io
import itertools
import re
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle

from selrestr.extract import (
    LEMMA_FAILURE,
    NON_NOUN_HEAD,
    PENN,
    LemmaTable,
    TagSet,
    extract_corpus,
    extract_triples,
    lemmatize,
)
from helpers import leaf, node
from selrestr.cli import run
from selrestr.trees import parse_bracketed
from selrestr.triples import (
    OBJECT,
    SUBJECT,
    ExtractionError,
    SynRel,
    TripleRecord,
    read_triples,
    write_discards,
    write_triples,
)


class TestSynRel:
    def test_subject_and_object_codes(self):
        assert SUBJECT.code == "0" and SUBJECT == SynRel("0")
        assert OBJECT.code == "1" and OBJECT == SynRel("1")
        assert SUBJECT != OBJECT

    def test_prep_code(self):
        rel = SynRel("with")
        assert rel not in (SUBJECT, OBJECT)
        assert str(rel) == "with"

    def test_prepositions_are_lowercased_and_shared(self):
        # Within one call, one SynRel per code serves every record.
        (tree,) = parse_bracketed(
            "(S (NP (NN dog))"
            " (VP (VBZ sleeps) (PP (IN On) (NP (NN mat))) (PP (IN on) (NP (NN rug)))))"
        )
        (_, on, again) = extract_triples(tree)
        assert on.rel.code == "on" and on.rel == SynRel("on")
        assert again.rel is on.rel
        assert read_triples("sleep\ton\tmat\n")[0].rel == on.rel

    def test_no_module_table_grows_with_the_codes_seen(self):
        # Relations are interned per read or extract_corpus call, so a
        # library caller that reads many codes leaves nothing behind.
        def tables():
            return {
                (module.__name__, key): len(value)
                for module in list(sys.modules.values())
                if module.__name__.startswith("selrestr")
                for key, value in vars(module).items()
                if not key.startswith("__") and isinstance(value, (dict, set, list))
            }

        before = tables()
        read_triples("".join(f"eat\tp{i}\tdog\n" for i in range(5000)))
        trees = parse_bracketed("".join(
            f"(S (NP (NN dog)) (VP (VBZ sleeps) (PP (IN q{i}) (NP (NN mat)))))" for i in range(5000)
        ))
        assert len(extract_corpus(trees)) == 10000
        assert tables() == before

    @pytest.mark.parametrize("bad", ["With", "", "o n", "in\t", "IN"])
    def test_bad_codes_rejected(self, bad):
        with pytest.raises(ValueError):
            SynRel(bad)

    def test_equality_and_ordering(self):
        assert SynRel("0") == SUBJECT
        assert sorted([SynRel("with"), OBJECT, SUBJECT]) == [
            SUBJECT,
            OBJECT,
            SynRel("with"),
        ]


class TestTagSet:
    def test_penn_defaults(self):
        assert "NNS" in PENN.noun_tags
        assert "VBG" in PENN.verb_tags
        assert PENN.prep_tags == frozenset({"IN", "TO"})
        assert PENN.clause_labels == frozenset({"S", "SINV"})

    def test_from_json_partial_override(self):
        tags = TagSet.from_json('{"noun_tags": ["N"], "clause_labels": ["CL"]}')
        assert tags.noun_tags == frozenset({"N"})
        assert tags.clause_labels == frozenset({"CL"})
        # untouched fields keep their defaults
        assert tags.verb_tags == PENN.verb_tags

    def test_from_json_unknown_key(self):
        with pytest.raises(ExtractionError, match="unknown tagset keys: nouns"):
            TagSet.from_json('{"nouns": ["NN"]}')

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"noun_tags": "NN"}', "tagset key noun_tags must be a list of strings, got 'NN'"),
            ('{"noun_tags": 5}', "tagset key noun_tags must be a list of strings, got 5"),
            ('{"verb_tags": ["VB", 1]}', "tagset key verb_tags must be a list of strings"),
            ('["noun_tags"]', "tagset must be a JSON object, got ['noun_tags']"),
        ],
    )
    def test_from_json_rejects_other_shapes(self, text, message):
        with pytest.raises(ExtractionError) as err:
            TagSet.from_json(text)
        assert str(err.value).startswith(message)

    def test_from_json_of_file_text(self, tmp_path):
        p = tmp_path / "tags.json"
        p.write_text('{"pp_labels": ["PP", "PP-LOC"]}', encoding="utf-8")
        tags = TagSet.from_json(p.read_text(encoding="utf-8"))
        assert tags.pp_labels == frozenset({"PP", "PP-LOC"})


class TestLemmaTable:
    def test_from_text_and_lookup(self):
        table = LemmaTable.from_text("children\tnoun\tchild\nsought\tverb\tseek\n")
        assert table.lookup("children", "noun") == "child"
        assert table.lookup("sought", "verb") == "seek"
        assert table.lookup("children", "verb") is None

    def test_lookup_case_folds(self):
        table = LemmaTable.from_text("children\tnoun\tchild\n")
        assert table.lookup("Children", "noun") == "child"
        assert table.lookup("CHILDREN", "noun") == "child"

    def test_comments_and_blanks_skipped(self):
        table = LemmaTable.from_text("# header\n\nmen\tnoun\tman\n")
        assert table.lookup("men", "noun") == "man"

    def test_bad_field_count(self):
        with pytest.raises(ExtractionError, match="line 2: expected 3 fields"):
            LemmaTable.from_text("men\tnoun\tman\nmen\tnoun\n")

    def test_bad_pos(self):
        with pytest.raises(ExtractionError, match="bad POS 'adj'"):
            LemmaTable.from_text("red\tadj\tred\n")

    def test_empty_lemma(self):
        with pytest.raises(ExtractionError, match="empty lemma"):
            LemmaTable.from_text("men\tnoun\t\n")

    def test_dict_entries_follow_the_file_rule(self):
        # Else extract writes (' run', '0', 'dog ') for "(S (NP (NNS dogs))
        # (VP (VBD ran)))", which reads back as ('run', '0', 'dog').
        with pytest.raises(ExtractionError) as err:
            LemmaTable({("dogs", "noun"): "dog ", ("ran", "verb"): " run"})
        assert str(err.value) == "bad lemma 'dog ': a space at either end or a leading #"

    def test_dict_entries_hold_no_tab_or_line_break(self):
        # Else extract writes 'r\x85n\t0\tdo\tg\n' for "(S (NP (NNS dogs))
        # (VP (VBD ran)))", and read_triples refuses that line.
        with pytest.raises(ExtractionError) as err:
            LemmaTable({("dogs", "noun"): "do\tg", ("ran", "verb"): "r\x85n"})
        assert str(err.value) == "bad lemma 'do\\tg': a tab or a line break"
        with pytest.raises(ExtractionError) as err:
            LemmaTable({("ran", "verb"): "r\x85n"})
        assert str(err.value) == "bad lemma 'r\\x85n': a tab or a line break"

    @pytest.mark.parametrize(
        "lemma, message",
        [
            ("#sit", "bad lemma '#sit': a space at either end or a leading #"),
            ("", "empty lemma"),
        ],
    )
    def test_dict_entry_errors_match_the_file_reader(self, lemma, message):
        with pytest.raises(ExtractionError) as err:
            LemmaTable({("ran", "verb"): lemma})
        assert str(err.value) == message
        with pytest.raises(ExtractionError) as err:
            LemmaTable.from_text(f"ran\tverb\t{lemma}\n")
        assert str(err.value) == f"lemma table line 1: {message}"


class TestLemmatize:
    def test_table_hit_beats_rules(self):
        table = LemmaTable.from_text("charges\tnoun\tcharge\n")
        assert lemmatize("charges", "noun", table) == ("charge", False)
        # without the table the bare rules over-strip
        assert lemmatize("charges", "noun", LemmaTable()) == ("charg", False)

    def test_table_hit_is_case_folded(self):
        table = LemmaTable.from_text("children\tnoun\tchild\n")
        assert lemmatize("Children", "noun", table) == ("child", False)

    @pytest.mark.parametrize(
        "form,lemma",
        [
            ("policies", "policy"),
            ("watches", "watch"),
            ("dogs", "dog"),
            ("dog", "dog"),
            ("glass", "glass"),
            ("classes", "class"),
        ],
    )
    def test_noun_rules(self, form, lemma):
        assert lemmatize(form, "noun", LemmaTable()) == (lemma, False)

    @pytest.mark.parametrize(
        "form,lemma",
        [
            ("seeking", "seek"),
            ("opposes", "oppose"),
            ("carries", "carry"),
            ("freeing", "free"),
            # the stem gate refuses "ed" here because "need" is reducible
            ("needed", "needed"),
            ("sought", "sought"),
        ],
    )
    def test_verb_rules(self, form, lemma):
        assert lemmatize(form, "verb", LemmaTable()) == (lemma, False)

    def test_rule_path_idempotent(self):
        words = [
            "policies", "watches", "buses", "dogs", "glass", "series",
            "classes", "lies", "seeking", "opposes", "carries", "sing",
            "needed", "freeing", "states", "press",
        ]
        for pos in ("noun", "verb"):
            for w in words:
                once = lemmatize(w, pos, LemmaTable()).lemma
                twice = lemmatize(once, pos, LemmaTable()).lemma
                assert twice == once, (w, pos)

    def test_non_alpha_miss_fails(self):
        assert lemmatize("12", "noun", LemmaTable()) == ("12", True)
        assert lemmatize("re-elected", "verb", LemmaTable()) == ("re-elected", True)

    def test_non_alpha_table_hit_succeeds(self):
        table = LemmaTable.from_text("u.s.\tnoun\tus\n")
        assert lemmatize("U.S.", "noun", table) == ("us", False)

    def test_bad_pos_raises(self):
        with pytest.raises(ValueError, match="bad coarse POS"):
            lemmatize("dog", "det", LemmaTable())

    # A copy of the suffix rules and of their recursive definition: a rule
    # fires when its stem is not empty and is its own result.
    RULES = {
        "noun": (("ies", "y"), ("es", ""), ("s", "")),
        "verb": (("ies", "y"), ("ing", ""), ("ed", ""), ("s", "")),
    }

    @classmethod
    def recursive(cls, form, pos):
        for suffix, replacement in cls.RULES[pos]:
            if form.endswith(suffix):
                stem = form[: -len(suffix)] + replacement
                if stem and cls.recursive(stem, pos) == stem:
                    return stem
        return form

    @pytest.mark.parametrize("pos", ["noun", "verb"])
    def test_rules_equal_their_recursive_definition_up_to_five_letters(self, pos):
        table = LemmaTable()
        for size in range(1, 6):
            for letters in itertools.product("seidng", repeat=size):
                form = "".join(letters)
                assert lemmatize(form, pos, table) == (self.recursive(form, pos), False), form

    @settings(max_examples=300, deadline=None)
    @given(form=st.text(alphabet="seidng", min_size=1, max_size=60),
           pos=st.sampled_from(["noun", "verb"]))
    @example(form="s" * 60, pos="noun")
    @example(form="sing" * 15, pos="verb")
    def test_rules_equal_their_recursive_definition(self, form, pos):
        assert lemmatize(form, pos, LemmaTable()) == (self.recursive(form, pos), False)

    def test_a_long_form_needs_no_recursion(self):
        # "s" x n is irreducible exactly when n is odd.
        assert lemmatize("s" * 5000, "noun", LemmaTable()) == ("s" * 4999, False)
        assert lemmatize("s" * 5001, "verb", LemmaTable()) == ("s" * 5001, False)

    def test_no_memo_outlives_a_call_without_a_table(self):
        first = node("S", node("NP", leaf("NNS", "zorblaxes")), node("VP", leaf("VBD", "quuxed")))
        second = node("S", node("NP", leaf("NNS", "grommets")), node("VP", leaf("VBD", "fnorded")))
        assert extract_corpus([first])[0][:3] == ("quux", SUBJECT, "zorblax")
        assert extract_triples(second)[0][:3] == ("fnord", SUBJECT, "grommet")
        gc.collect()
        held = [
            table for table in gc.get_objects()
            if isinstance(table, LemmaTable) and ("zorblaxes", "noun") in table._memo
        ]
        assert held == []


class TestNpHead:
    """The head of an NP is its rightmost noun-tagged child leaf."""

    @staticmethod
    def object_of(np, tags=PENN):
        """(noun, discard reason) of the object record for ``np``."""
        tree = node("S", node("VP", leaf("VBD", "saw"), np))
        (record,) = extract_triples(tree, tags=tags)
        assert record.rel == OBJECT
        return record.noun, record.discard_reason

    def test_rightmost_noun_tag(self):
        np = node("NP", leaf("DT", "the"), leaf("NN", "bond"), leaf("NNS", "buyers"))
        assert self.object_of(np) == ("buyer", None)

    def test_noun_before_trailing_adverb(self):
        np = node("NP", leaf("NN", "dog"), leaf("RB", "too"))
        assert self.object_of(np) == ("dog", None)

    def test_pronoun_only_is_none(self):
        assert self.object_of(node("NP", leaf("PRP", "he"))) == ("he", NON_NOUN_HEAD)

    def test_nested_np_not_searched(self):
        inner = node("NP", leaf("NN", "board"))
        np = node("NP", inner, node("PP", leaf("IN", "of"), inner))
        assert self.object_of(np) == ("board", NON_NOUN_HEAD)

    def test_custom_tags(self):
        tags = TagSet(noun_tags=frozenset({"N"}))
        np = node("NP", leaf("N", "hund"))
        assert self.object_of(np, tags) == ("hund", None)


def _one(text):
    trees = parse_bracketed(text)
    assert len(trees) == 1
    return trees[0]


class TestExtractTriples:
    def test_transitive_with_pp(self):
        tree = _one(
            "(S (NP (NNS prosecutors)) (VP (MD may) (VP (VB seek)"
            " (NP (DT an) (NN indictment)) (PP (IN on) (NP (NNS charges)))))"
            " (. .))"
        )
        table = LemmaTable.from_text("charges\tnoun\tcharge\n")
        recs = extract_triples(tree, table)
        assert [(r.verb, r.rel.code, r.noun, r.kept) for r in recs] == [
            ("seek", "0", "prosecutor", True),
            ("seek", "1", "indictment", True),
            ("seek", "on", "charge", True),
        ]

    def test_subject_is_last_np_before_vp(self):
        # apposition: two NP sisters precede the VP
        tree = _one(
            "(S (NP (NN chairman)) (, ,) (NP (NN economist)) (VP (VBD testified)))"
        )
        recs = extract_triples(tree)
        assert [(r.rel.code, r.noun) for r in recs] == [("0", "economist")]

    def test_object_from_innermost_vp(self):
        tree = _one(
            "(S (NP (NN board)) (VP (VBZ has) (VP (VBN bought)"
            " (NP (DT the) (NN plan)))))"
        )
        recs = extract_triples(tree)
        assert ("bought", "1", "plan") in {(r.verb, r.rel.code, r.noun) for r in recs}

    def test_np_after_outer_vp_level_ignored(self):
        # the object must come from the innermost VP, not an outer one
        tree = _one(
            "(S (NP (NN firm)) (VP (VBZ is) (NP (NN leader)) (VP (VBG expanding))))"
        )
        recs = extract_triples(tree)
        assert [(r.verb, r.rel.code, r.noun) for r in recs] == [("expand", "0", "firm")]

    def test_clause_without_vp_skipped(self):
        tree = _one("(S (NP (NN dog)) (ADJP (JJ asleep)))")
        assert extract_triples(tree) == []

    def test_vp_without_verb_skipped(self):
        tree = _one("(S (NP (NN dog)) (VP (MD will) (ADVP (RB not))))")
        assert extract_triples(tree) == []

    def test_pp_without_np_skipped(self):
        tree = _one("(S (NP (NN firm)) (VP (VBD grew) (PP (IN up))))")
        recs = extract_triples(tree)
        assert [(r.rel.code, r.noun) for r in recs] == [("0", "firm")]

    def test_pp_without_prep_leaf_skipped(self):
        tree = _one("(S (NP (NN firm)) (VP (VBD grew) (PP (NP (NN year)))))")
        recs = extract_triples(tree)
        assert [(r.rel.code, r.noun) for r in recs] == [("0", "firm")]

    def test_to_tagged_preposition(self):
        tree = _one("(S (NP (NN firm)) (VP (VBD walked) (PP (TO to) (NP (NN city)))))")
        recs = extract_triples(tree)
        assert ("walk", "to", "city") in {(r.verb, r.rel.code, r.noun) for r in recs}

    def test_preposition_case_folded(self):
        tree = _one("(S (VP (VB look) (PP (IN In) (NP (NN mirror)))))")
        recs = extract_triples(tree)
        assert recs[0].rel == SynRel("in")

    def test_pronoun_subject_discarded(self):
        tree = _one("(S (NP (PRP He)) (VP (VBD resigned)))")
        recs = extract_triples(tree)
        assert len(recs) == 1
        r = recs[0]
        assert not r.kept
        assert r.discard_reason == NON_NOUN_HEAD
        assert (r.verb, r.rel.code, r.noun) == ("resign", "0", "He")

    def test_lemma_failure_poisons_whole_clause(self):
        tree = _one(
            "(S (NP (NN committee)) (VP (VBD re-elected) (NP (NN treasurer))))"
        )
        recs = extract_triples(tree)
        assert [r.discard_reason for r in recs] == [LEMMA_FAILURE, LEMMA_FAILURE]
        assert all(r.verb == "re-elected" for r in recs)

    def test_sinv_clause(self):
        tree = _one("(SINV (VP (VBD rose) (NP (NNS stocks))) (NP (NN index)))")
        recs = extract_triples(tree)
        # SINV has no NP before the VP, so only the object is found
        assert [(r.verb, r.rel.code, r.noun) for r in recs] == [("rose", "1", "stock")]

    def test_embedded_clause_processed_independently(self):
        tree = _one(
            "(S (NP (NN analyst)) (VP (VBD said)"
            " (SBAR (IN that) (S (NP (NNS stocks)) (VP (VBD fell))))))"
        )
        recs = extract_triples(tree)
        got = {(r.verb, r.rel.code, r.noun) for r in recs}
        assert got == {("said", "0", "analyst"), ("fell", "0", "stock")}

    @pytest.mark.parametrize("code", ["0", "1"])
    def test_pp_with_reserved_code_skipped(self, code):
        # A preposition spelled like the subject or object code would be
        # read back as that relation, so its PP yields nothing.
        tree = _one(
            f"(S (NP (NN cat)) (VP (VBD sat) (PP (IN {code}) (NP (NN mat)))"
            " (PP (IN on) (NP (NN rug)))))"
        )
        recs = extract_triples(tree)
        assert [(r.rel.code, r.noun) for r in recs] == [("0", "cat"), ("on", "rug")]

    def test_extract_corpus_keeps_tree_order(self):
        trees = parse_bracketed(
            "(S (NP (NN dog)) (VP (VBD slept)))\n(S (NP (NN cat)) (VP (VBD saw) (NP (NN rat))))"
        )
        recs = extract_corpus(trees)
        assert [(r.rel.code, r.noun) for r in recs] == [("0", "dog"), ("0", "cat"), ("1", "rat")]
        assert extract_corpus(trees[::-1]) == recs[1:] + recs[:1]


class TestTripleFiles:
    def test_triple_line_format(self):
        buf = io.StringIO()
        write_triples([TripleRecord("drink", SynRel("1"), "water")], buf)
        assert buf.getvalue() == "drink\t1\twater\n"

    def test_each_file_is_one_write(self):
        class Writes(list):
            write = list.append

        kept, lost = Writes(), Writes()
        write_triples([TripleRecord("drink", SUBJECT, "dog")] * 3, kept)
        write_discards([TripleRecord("drink", SUBJECT, "He", NON_NOUN_HEAD)] * 2, lost)
        assert kept == ["drink\t0\tdog\n" * 3]
        assert lost == ["drink\t0\tHe\tNonNounHead\n" * 2]

    def test_write_and_read_round_trip(self):
        recs = [
            TripleRecord("drink", SUBJECT, "dog"),
            TripleRecord("drink", OBJECT, "water"),
            TripleRecord("move", SynRel("to"), "city"),
        ]
        buf = io.StringIO()
        write_triples(recs, buf)
        back = read_triples(buf.getvalue())
        assert [(r.verb, r.rel, r.noun) for r in back] == [
            (r.verb, r.rel, r.noun) for r in recs
        ]
        assert all(r.kept for r in back)

    def test_write_triples_rejects_discards(self):
        bad = TripleRecord("drink", SUBJECT, "He", discard_reason=NON_NOUN_HEAD)
        with pytest.raises(ValueError, match="discarded record"):
            write_triples([bad], io.StringIO())

    def test_write_discards_rejects_kept(self):
        with pytest.raises(ValueError, match="kept record"):
            write_discards([TripleRecord("drink", SUBJECT, "dog")], io.StringIO())

    def test_discard_line_format(self):
        bad = TripleRecord("rise", SynRel("by"), "%", discard_reason=LEMMA_FAILURE)
        buf = io.StringIO()
        write_discards([bad], buf)
        assert buf.getvalue() == "rise\tby\t%\tLemmaFailure\n"

    def test_read_triples_skips_comments_and_blanks(self):
        recs = read_triples("# header\n\ndrink\t0\tdog\n")
        assert len(recs) == 1

    def test_read_triples_field_count_error(self):
        with pytest.raises(ExtractionError, match="line 2: expected 3 fields"):
            read_triples("drink\t0\tdog\ndrink\t0\n")

    def test_read_triples_empty_noun_error(self):
        with pytest.raises(ExtractionError, match="empty verb or noun"):
            read_triples("drink\t0\t\n")

    def test_read_triples_bad_relation(self):
        with pytest.raises(ExtractionError, match="line 1: bad relation code"):
            read_triples("drink\tWith\tdog\n")


class TestBundledTreebank:
    """The bundled corpus must reproduce the hand-derived record files."""

    def test_matches_hand_derived_files(self, data_dir, test_data_dir):
        from selrestr.trees import read_trees

        table = LemmaTable.from_text((data_dir / "mini_lemmas.tsv").read_text(encoding="utf-8"))
        recs = extract_corpus(read_trees(data_dir / "mini.mrg"), table)
        kept = io.StringIO()
        write_triples([r for r in recs if r.kept], kept)
        lost = io.StringIO()
        write_discards([r for r in recs if not r.kept], lost)
        expect_kept = (test_data_dir / "mini_triples.tsv").read_text(encoding="utf-8")
        expect_lost = (test_data_dir / "mini_discards.tsv").read_text(encoding="utf-8")
        assert kept.getvalue() == expect_kept
        assert lost.getvalue() == expect_lost
        assert len(recs) == 61


# Clause trees for the differential property: subjects (nouns, pronouns,
# numbers, apposition), objects, PPs (reserved and mixed-case
# prepositions, none, no NP), nested and coordinated VPs, SINV and
# SBAR-embedded clauses.
_LEAVES = {
    "DT": ["the", "a"],
    "NN": ["dog", "board", "Plan"],
    "NNS": ["dogs", "shares", "charges", "policies"],
    "PRP": ["he", "It"],
    "CD": ["7", "1990"],
    "JJ": ["big"],
    "VBD": ["sought", "bought", "re-elected", "saw"],
    "VB": ["seek", "report"],
    "VBZ": ["carries"],
    "MD": ["will"],
    "IN": ["in", "On", "of", "0", "1"],
    "TO": ["to"],
    "RB": ["not"],
    "CC": ["and"],
    ",": [","],
}
_LEMMA_TEXT = "sought\tverb\tseek\nbought\tverb\tbuy\nsaw\tverb\tsee\n"
_LEMMAS = LemmaTable.from_text(_LEMMA_TEXT)


def _leaf(*tags):
    return st.sampled_from(tags).flatmap(
        lambda tag: st.sampled_from(_LEAVES[tag]).map(lambda word: f"({tag} {word})")
    )


def _phrase(label, parts):
    return st.tuples(*parts).map(lambda kids: f"({label} {' '.join(k for k in kids if k)})")


def _maybe(strategy):
    return st.one_of(st.just(""), strategy)


# Noun heads are drawn twice as often as pronoun and numeric ones.
noun_phrases = st.recursive(
    _phrase("NP", [_maybe(_leaf("DT", "JJ")), _leaf("NN", "NNS", "NN", "NNS", "PRP", "CD"),
                   _maybe(_leaf("NN", "NNS", "RB"))]),
    lambda inner: st.one_of(
        _phrase("NP", [inner, _maybe(_phrase("PP", [_leaf("IN"), inner]))]),
        _phrase("NP", [_leaf("DT"), inner]),
    ),
    max_leaves=3,
)
prep_phrases = st.one_of(
    _phrase("PP", [_leaf("IN", "TO", "RB"), _maybe(noun_phrases)]),
    _phrase("PP", [noun_phrases]),
)


def _verb_phrases(clauses):
    flat = _phrase("VP", [
        _maybe(_leaf("MD", "RB")), _leaf("VBD", "VB", "VBZ", "MD"),
        _maybe(noun_phrases), _maybe(noun_phrases), _maybe(prep_phrases), _maybe(prep_phrases),
        _maybe(_phrase("SBAR", [_leaf("IN"), clauses])),
    ])
    return st.recursive(
        flat,
        lambda inner: st.one_of(
            _phrase("VP", [_maybe(_leaf("MD", "VBZ")), inner, _maybe(noun_phrases)]),
            _phrase("VP", [inner, _leaf("CC"), inner]),
        ),
        max_leaves=3,
    )


def _clause(clauses):
    verb_phrases = _verb_phrases(clauses)
    return st.one_of(
        _phrase("S", [_maybe(noun_phrases), _maybe(_leaf(",")), _maybe(noun_phrases),
                      verb_phrases, _maybe(noun_phrases)]),
        _phrase("SINV", [verb_phrases, noun_phrases]),
        _phrase("S", [noun_phrases, _leaf("RB")]),
    )


clause_trees = st.recursive(
    _clause(st.just("(S (NP (NN dog)) (VP (VBD saw)))")), _clause, max_leaves=4
)


def _reference(trees, table):
    return oracle.extract_corpus(trees, lambda form, pos: lemmatize(form, pos, table), PENN)


class TestAgainstReference:
    """The flat clause walk against the plain walk of ``tests/oracle.py``,
    each on its own reader's trees."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(clause_trees, min_size=1, max_size=4))
    def test_same_records_as_the_reference(self, trees):
        text = "\n".join(trees)
        got = extract_corpus(parse_bracketed(text), _LEMMAS)
        assert got == _reference(oracle.parse_bracketed(text), _LEMMAS)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(clause_trees, min_size=1, max_size=4))
    def test_extract_command_writes_the_reference_files(self, trees):
        # The reader and the writers together: the files that extract
        # writes, byte for byte, against the reference reader and walk.
        text = "\n".join(trees)
        want = _reference(oracle.parse_bracketed(text), _LEMMAS)
        kept = "".join(f"{v}\t{c}\t{n}\n" for v, c, n, reason in want if reason is None)
        lost = "".join(f"{v}\t{c}\t{n}\t{reason}\n" for v, c, n, reason in want if reason)
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "corpus.mrg").write_text(text, encoding="utf-8")
            (d / "lemmas.tsv").write_text(_LEMMA_TEXT, encoding="utf-8")
            argv = ["extract", "--corpus", str(d / "corpus.mrg"), "--lemmas", str(d / "lemmas.tsv"),
                    "--triples", str(d / "triples.tsv")]
            with redirect_stdout(io.StringIO()):
                assert run(argv) == 0
            assert (d / "triples.tsv").read_bytes() == kept.encode("utf-8")
            assert (d / "triples.tsv.discards").read_bytes() == lost.encode("utf-8")

    @pytest.mark.parametrize("corpus", ["mini", "demo"])
    def test_bundled_corpora(self, data_dir, corpus):
        text = (data_dir / f"{corpus}.mrg").read_text(encoding="utf-8")
        lemmas = (data_dir / f"{corpus}_lemmas.tsv").read_text(encoding="utf-8")
        got = extract_corpus(parse_bracketed(text), LemmaTable.from_text(lemmas))
        want = _reference(oracle.parse_bracketed(text), LemmaTable.from_text(lemmas))
        assert got == want
        assert want


# Lemma table entries for the generated trees' noun and verb forms, with
# lemmas that may start or end with a space or start with #.
_LEMMA_KEYS = [
    (form, pos)
    for tags, pos in ((("NN", "NNS"), "noun"), (("VBD", "VB", "VBZ"), "verb"))
    for tag in tags
    for form in _LEAVES[tag]
]


class TestTriplesRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(
        trees=st.lists(clause_trees, min_size=1, max_size=3),
        entries=st.lists(
            st.tuples(st.sampled_from(_LEMMA_KEYS), st.text(alphabet=" #ab\xa0", min_size=1,
                                                             max_size=4)),
            max_size=6,
        ),
    )
    @example(
        trees=["(S (NP (NNS dogs)) (VP (VBD sought) (NP (NN board))))"],
        entries=[(("sought", "verb"), " run"), (("board", "noun"), "#x"),
                 (("dogs", "noun"), "#sit")],
    )
    def test_every_kept_record_extract_writes_reads_back(self, trees, entries):
        # A lemma line is either refused, naming its line, or kept; every
        # kept record that extract writes then reads back unchanged.
        kept = []
        for (form, pos), lemma in entries:
            line = f"{form}\t{pos}\t{lemma}\n"
            try:
                LemmaTable.from_text(line)
            except ExtractionError as exc:
                assert re.match(r"lemma table line 1: (bad|empty) lemma", str(exc)), exc
            else:
                kept.append(line)
        lemmas = LemmaTable.from_text("".join(kept))
        records = [r for r in extract_corpus(parse_bracketed("\n".join(trees)), lemmas) if r.kept]
        buf = io.StringIO()
        write_triples(records, buf)
        assert [r[:3] for r in read_triples(buf.getvalue())] == [r[:3] for r in records]

    @settings(max_examples=150, deadline=None)
    @given(
        trees=st.lists(clause_trees, min_size=1, max_size=3),
        entries=st.lists(
            st.tuples(st.sampled_from(_LEMMA_KEYS),
                      st.text(alphabet=" #ab\t\r\x85\u2028", min_size=1, max_size=4)),
            max_size=6,
        ),
    )
    @example(
        trees=["(S (NP (NNS dogs)) (VP (VBD sought)))"],
        entries=[(("dogs", "noun"), "do\tg"), (("sought", "verb"), "r\x85n")],
    )
    def test_every_kept_record_of_a_dict_table_reads_back(self, trees, entries):
        # A dict-built table refuses a lemma that a triples line cannot
        # hold; with the lemmas it takes, extract's kept records read back
        # unchanged and in order.
        kept = {}
        for key, lemma in entries:
            try:
                LemmaTable({key: lemma})
            except ExtractionError as exc:
                assert re.match(r"bad lemma ", str(exc)), exc
            else:
                kept[key] = lemma
        lemmas = LemmaTable(kept)
        records = [r for r in extract_corpus(parse_bracketed("\n".join(trees)), lemmas) if r.kept]
        buf = io.StringIO()
        write_triples(records, buf)
        assert [r[:3] for r in read_triples(buf.getvalue())] == [r[:3] for r in records]
