"""Learner tests: candidate generation, greedy disjoint selection, the
group pipeline, and the restrictions file format."""

import io
import json
import math
import random

import pytest
from hypothesis import given, strategies as st

from conftest import TOY_PARENTS, TOY_SENSES, TOY_TRIPLES, build_world
from helpers import write_restrictions_jsonl
from selrestr.learner import (
    LearnerConfig,
    candidate_space,
    learn_all,
    learn_group,
    score_candidates,
    select_disjoint,
)
from selrestr.restrictions import (
    SelectionalRestriction,
    format_restriction,
    read_header,
    read_restrictions,
    write_restrictions,
)
from selrestr.stats import EstimatorKind, ScoreKind, UnsupportedClassError
from selrestr.taxonomy import load_taxonomy
from selrestr.triples import ExtractionError, SynRel

S0 = SynRel("0")
S1 = SynRel("1")

LOOSE = LearnerConfig(threshold=1, min_verb_support=1)


def tax_of(scorer):
    return scorer.taxonomy


@pytest.fixture(scope="module")
def toy():
    return build_world(TOY_PARENTS, TOY_SENSES, TOY_TRIPLES)


# two disjoint classes tie on score and both survive selection
EAT_PARENTS = {
    "thing": set(),
    "fruit": {"thing"},
    "meat": {"thing"},
    "liquid": {"thing"},
}
EAT_SENSES = {
    "apple": frozenset({"fruit"}),
    "pork": frozenset({"meat"}),
    "water": frozenset({"liquid"}),
}
EAT_TRIPLES = [("eat", "1", "apple")] * 2 + [("eat", "1", "pork")] * 2 + [
    ("drink", "1", "water")
]


@pytest.fixture(scope="module")
def eat():
    return build_world(EAT_PARENTS, EAT_SENSES, EAT_TRIPLES)


class TestLearnerConfig:
    def test_defaults(self):
        cfg = LearnerConfig()
        assert cfg.threshold == 3
        assert cfg.scorer is ScoreKind.ASSOC
        assert cfg.estimator is EstimatorKind.RAW
        assert cfg.min_verb_support == 10
        assert cfg.keep_nonpositive is True

    @pytest.mark.parametrize("bad", [{"threshold": 0}, {"min_verb_support": 0}])
    def test_validation(self, bad):
        with pytest.raises(ValueError, match="must be >= 1"):
            LearnerConfig(**bad)

    def test_kinds_by_value(self):
        cfg = LearnerConfig(scorer="g2", estimator="sense")
        assert cfg.scorer is ScoreKind.LOG_LIKELIHOOD_RATIO
        assert cfg.estimator is EstimatorKind.SENSE_CORRECTED
        with pytest.raises(ValueError):
            LearnerConfig(scorer="bogus")


class TestCandidateSpace:
    def test_toy_drink_subject(self, toy):
        # (class_id, n_nouns, support), sorted by class id
        assert candidate_space(toy, "drink", S0, LOOSE) == [
            ("animal", 2, 3),
            ("cat", 1, 1),
            ("dog", 1, 2),
            ("entity", 2, 3),
        ]

    def test_threshold_prunes(self, toy):
        cfg = LearnerConfig(threshold=2, min_verb_support=1)
        cands = candidate_space(toy, "drink", S0, cfg)
        assert [cls for cls, _, _ in cands] == ["animal", "dog", "entity"]

    def test_unknown_nouns_contribute_no_classes(self):
        scorer = build_world(
            TOY_PARENTS, TOY_SENSES, TOY_TRIPLES + [("drink", "0", "xyzzy")] * 5
        )
        by_id = {cls: support for cls, _, support in candidate_space(scorer, "drink", S0, LOOSE)}
        # the unknown noun bumps verb support but supports no class
        assert by_id["animal"] == 3
        assert "xyzzy" not in by_id

    def test_support_is_raw_even_for_sense_estimator(self, toy):
        cfg = LearnerConfig(
            threshold=1, min_verb_support=1, estimator=EstimatorKind.SENSE_CORRECTED
        )
        by_id = {cls: support for cls, _, support in candidate_space(toy, "drink", S0, cfg)}
        assert by_id["animal"] == 3


class TestScoreCandidates:
    def test_scores_filled(self, toy):
        cands = candidate_space(toy, "drink", S0, LOOSE)
        scored = score_candidates(toy, "drink", S0, cands, LOOSE)
        assert [(sr.verb, sr.rel, sr.class_id, sr.n_nouns, sr.support) for sr in scored] == [
            ("drink", S0, cls, n_nouns, support) for cls, n_nouns, support in cands
        ]
        by_id = {sr.class_id: sr.score for sr in scored}
        assert by_id["animal"] == pytest.approx(0.41503749927884376, rel=1e-12)
        assert by_id["entity"] == 0.0

    def test_unsupported_candidate_raises(self, toy):
        # candidate_space never yields such a class; scoring one is a bug
        with pytest.raises(UnsupportedClassError, match="no support"):
            score_candidates(toy, "drink", S0, [("liquid", 1, 1)], LOOSE)


def _cand(cid, score, n_nouns=1, support=1):
    return SelectionalRestriction("v", S0, cid, score, n_nouns, support)


@pytest.fixture(scope="module")
def chain_tax():
    tax, _ = load_taxonomy("a\t-\nb\ta\nc\tb\nx\t-\n", "")
    return tax


class TestSelectDisjoint:
    def test_best_first_drops_relatives(self, chain_tax):
        picked = select_disjoint(
            [_cand("a", 1.0), _cand("b", 3.0), _cand("c", 2.0)], chain_tax
        )
        assert [c.class_id for c in picked] == ["b"]

    def test_unrelated_classes_coexist(self, chain_tax):
        picked = select_disjoint([_cand("b", 3.0), _cand("x", 1.0)], chain_tax)
        assert [c.class_id for c in picked] == ["b", "x"]

    def test_descendant_removes_ancestor(self, chain_tax):
        picked = select_disjoint([_cand("c", 5.0), _cand("a", 4.0)], chain_tax)
        assert [c.class_id for c in picked] == ["c"]

    def test_tie_breaks_support_then_nouns_then_id(self, chain_tax):
        a = _cand("x", 1.0, n_nouns=1, support=9)
        b = _cand("b", 1.0, n_nouns=1, support=7)
        assert select_disjoint([a, b], chain_tax)[0] is a
        c = _cand("x", 1.0, n_nouns=4, support=7)
        assert select_disjoint([b, c], chain_tax)[0] is c
        d = _cand("a", 1.0, n_nouns=1, support=7)
        assert select_disjoint([b, d], chain_tax)[0] is d

    def test_permutation_invariance(self, chain_tax):
        base = [
            _cand("a", 0.5, 2, 5),
            _cand("b", 0.5, 2, 5),
            _cand("c", 0.25, 1, 3),
            _cand("x", 0.5, 2, 5),
        ]
        expected = select_disjoint(base, chain_tax)
        rng = random.Random(11)
        for _ in range(20):
            shuffled = base[:]
            rng.shuffle(shuffled)
            assert select_disjoint(shuffled, chain_tax) == expected

    def test_positive_scaling_invariance(self, chain_tax):
        base = [_cand("a", 0.2, 1, 4), _cand("x", 0.7, 2, 2), _cand("c", 0.4, 1, 6)]
        ids = [c.class_id for c in select_disjoint(base, chain_tax)]
        scaled = [c._replace(score=c.score * 37.5) for c in base]
        assert [c.class_id for c in select_disjoint(scaled, chain_tax)] == ids

    def test_empty_input(self, chain_tax):
        assert select_disjoint([], chain_tax) == []

    def test_rank_ties_follow_the_tuple_key(self):
        # Ties in score (0.0 against -0.0 among them), support and nouns:
        # whatever the input order, the kept list is the greedy pass over
        # the candidates sorted by (-score, -support, -n_nouns, class_id).
        roots = [f"k{i:02d}" for i in range(12)]
        tax, _ = load_taxonomy(
            "".join(f"{r}\t-\n" for r in roots) + "a\t-\nb\ta\nc\tb\nd\ta\n", ""
        )
        rng = random.Random(5)
        cands = [
            _cand(cid, rng.choice([0.0, -0.0, 0.5, -0.5]), rng.choice([1, 2]), rng.choice([1, 2]))
            for cid in roots + ["a", "b", "c", "d"]
        ]

        def rank(sr):
            return (-sr.score, -sr.support, -sr.n_nouns, sr.class_id)

        def by_tuple_key(candidates):
            kept = []
            for sr in sorted(candidates, key=rank):
                if not any(tax.related(sr.class_id, k.class_id) for k in kept):
                    kept.append(sr)
            return kept

        # The draw holds 0.0 and -0.0 with the same support and nouns.
        zeros = {(sr.support, sr.n_nouns, math.copysign(1, sr.score)) for sr in cands if not sr.score}
        assert any((supp, nouns, -sign) in zeros for supp, nouns, sign in zeros)
        expected = by_tuple_key(cands)
        for _ in range(30):
            rng.shuffle(cands)
            got = select_disjoint(cands, tax)
            assert len(got) == len(expected)
            # The very objects: a kept 0.0 is not a kept -0.0.
            assert all(g is e for g, e in zip(got, expected))


class TestLearnGroup:
    def test_toy_drink_subject(self, toy):
        srs = learn_group(toy, "drink", S0, LOOSE)
        assert len(srs) == 1
        sr = srs[0]
        assert (sr.verb, sr.rel, sr.class_id) == ("drink", S0, "animal")
        assert sr.score == pytest.approx(0.41503749927884376, rel=1e-12)
        assert (sr.n_nouns, sr.support) == (2, 3)

    def test_tie_on_zero_picks_first_class_id(self, toy):
        # all (drink, object) candidates score exactly 0; entity wins the tie
        srs = learn_group(toy, "drink", S1, LOOSE)
        assert [(sr.class_id, sr.score) for sr in srs] == [("entity", 0.0)]

    def test_drop_nonpositive(self, toy):
        cfg = LearnerConfig(threshold=1, min_verb_support=1, keep_nonpositive=False)
        assert learn_group(toy, "drink", S1, cfg) == []
        srs = learn_group(toy, "sleep", S0, cfg)
        assert [sr.class_id for sr in srs] == ["man"]

    def test_two_disjoint_winners(self, eat):
        srs = learn_group(eat, "eat", S1, LOOSE)
        assert [(sr.class_id, sr.n_nouns, sr.support) for sr in srs] == [
            ("fruit", 1, 2),
            ("meat", 1, 2),
        ]
        for sr in srs:
            assert sr.score == pytest.approx(0.16096404744368117, rel=1e-12)


class TestLearnAll:
    def test_toy_full_run(self, toy):
        srs = learn_all(toy, LOOSE)
        assert [(sr.verb, sr.rel.code, sr.class_id) for sr in srs] == [
            ("drink", "0", "animal"),
            ("drink", "1", "entity"),
            ("sleep", "0", "man"),
        ]
        assert srs[2].score == pytest.approx(2.0, rel=1e-12)

    def test_min_verb_support_filters_groups(self, toy):
        cfg = LearnerConfig(threshold=1, min_verb_support=2)
        srs = learn_all(toy, cfg)
        assert {(sr.verb, sr.rel.code) for sr in srs} == {("drink", "0"), ("drink", "1")}

    def test_every_candidate_scores(self, toy):
        # learning has no failure path: every candidate of every group
        # scores, for every scorer and estimator
        for scorer in ScoreKind:
            for estimator in EstimatorKind:
                cfg = LearnerConfig(1, scorer, estimator, min_verb_support=1)
                for v, s in toy.table.verb_positions():
                    cands = candidate_space(toy, v, s, cfg)
                    assert len(score_candidates(toy, v, s, cands, cfg)) == len(cands) > 0
                assert len(learn_all(toy, cfg)) == 3


class TestRestrictionFiles:
    SR = SelectionalRestriction("drink", S0, "animal", 0.41503749927884376, 2, 3)

    def test_format_six_decimals(self):
        assert format_restriction(self.SR) == "drink\t0\tanimal\t0.415037\t2\t3"

    def test_negative_zero_normalized(self):
        sr = SelectionalRestriction("drink", S1, "entity", -0.0, 1, 3)
        assert format_restriction(sr) == "drink\t1\tentity\t0.000000\t1\t3"

    def test_write_with_header(self):
        buf = io.StringIO()
        write_restrictions([self.SR], buf, header={"tool": "x", "threshold": "3"})
        assert buf.getvalue() == (
            "# tool=x\n# threshold=3\ndrink\t0\tanimal\t0.415037\t2\t3\n"
        )

    def test_round_trip(self):
        buf = io.StringIO()
        write_restrictions([self.SR], buf, header={"k": "v"})
        back = read_restrictions(buf.getvalue())
        assert len(back) == 1
        sr = back[0]
        assert (sr.verb, sr.rel, sr.class_id) == ("drink", S0, "animal")
        assert sr.score == pytest.approx(self.SR.score, abs=5e-7)
        assert (sr.n_nouns, sr.support) == (2, 3)

    def test_jsonl(self):
        buf = io.StringIO()
        write_restrictions_jsonl([self.SR], buf)
        row = json.loads(buf.getvalue())
        assert row == {
            "verb": "drink",
            "rel": "0",
            "class": "animal",
            "score": 0.415037,
            "n_nouns": 2,
            "support": 3,
        }

    def test_read_field_count_error(self):
        with pytest.raises(ExtractionError, match="line 1: expected 6 fields"):
            read_restrictions("drink\t0\tanimal\t0.4\t2\n")

    def test_read_bad_number(self):
        with pytest.raises(ExtractionError, match="restrictions line 2"):
            read_restrictions("drink\t0\tanimal\t0.4\t2\t3\ndrink\t0\tdog\tx\t1\t2\n")

    def test_read_bad_relation(self):
        with pytest.raises(ExtractionError, match="restrictions line 1"):
            read_restrictions("drink\tSUBJ\tanimal\t0.4\t2\t3\n")

    def test_read_skips_header(self):
        assert read_restrictions("# tool=x\n\n") == []


# Every line break of str.splitlines.
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
DATA = "drink\t0\tanimal\t0.4\t2\t3"


def whole_text_header(text):
    """``read_header``'s rule applied to every line of the text at once."""
    header = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            break
        key, sep, value = line[1:].strip().partition("=")
        if sep:
            header[key] = value
    return header


class TestReadHeader:
    @pytest.mark.parametrize("brk", ["\r\n", "\r", "\u2028"])
    def test_line_breaks(self, brk):
        text = brk.join(["# tool=x", "# threshold=3", DATA, "# late=no", ""])
        assert read_header(text) == {"tool": "x", "threshold": "3"}

    def test_blank_lines_inside_the_header(self):
        text = f"# a=1\n\n  \t\n#no value\n# b = 2\n\n{DATA}\n# c=3\n"
        assert read_header(text) == {"a": "1", "b ": " 2"}

    def test_first_line_is_data(self):
        assert read_header(f"{DATA}\n# tool=x\n") == {}
        assert read_header("") == {}

    @pytest.mark.parametrize("width", range(1015, 1030))
    @pytest.mark.parametrize("brk", ["\r\n", "\u2028"])
    def test_break_at_the_first_cut(self, width, brk):
        # A header line ends at, across or just past the end of the first
        # head the reader splits.
        text = brk.join([f"# a={'v' * width}", "# b=2", DATA, "# c=3"])
        assert read_header(text) == whole_text_header(text) == {"a": "v" * width, "b": "2"}

    @given(
        lines=st.lists(
            st.one_of(
                st.builds("# k{}={}".format, st.integers(0, 9), st.text("v =#", max_size=900)),
                st.sampled_from(["", "  ", "#", "# no value", DATA]),
            ),
            max_size=12,
        ),
        breaks=st.lists(st.sampled_from(LINE_BREAKS), min_size=12, max_size=12),
    )
    def test_equals_splitting_the_whole_text(self, lines, breaks):
        text = "".join(line + brk for line, brk in zip(lines, breaks))
        assert read_header(text) == whole_text_header(text)
