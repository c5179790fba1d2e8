"""Counting and scoring tests, pinned to independently computed values.

The toy corpus (7 occurrences over two verbs) is small enough that every
probability is checkable by hand; the expected floats below were frozen
from the brute-force reference in oracle.py.
"""

import math
from fractions import Fraction

import pytest

import oracle
from conftest import TOY_PARENTS, TOY_SENSES, TOY_TRIPLES, build_world
from helpers import flat_counts, lexicon_misses, score
from selrestr.stats import (
    CountsTable,
    EstimatorKind,
    ScoreKind,
    Scorer,
    UnsupportedClassError,
    ZeroDenominatorError,
    accumulate,
    read_counts,
    signed_g2,
)
from selrestr.triples import SUBJECT, ExtractionError, SynRel, TripleRecord

S0 = SynRel("0")
S1 = SynRel("1")
RAW = EstimatorKind.RAW
SENSE = EstimatorKind.SENSE_CORRECTED
ASSOC = ScoreKind.ASSOC
PAIR_MI = ScoreKind.ASSOC_PAIR_MI
G2 = ScoreKind.LOG_LIKELIHOOD_RATIO


class TestCountsTable:
    def test_toy_totals(self, toy_scorer):
        t = toy_scorer.table
        assert t.grand_total == 7
        assert t.total(S0) == 4
        assert t.total(S1) == 3
        assert t.vs_total("drink", S0) == 3
        assert t.vs_total("drink", S1) == 3
        assert t.vs_total("sleep", S0) == 1
        assert t.vs_total("sleep", S1) == 0

    def test_toy_noun_marginals(self, toy_scorer):
        t = toy_scorer.table
        assert t.noun_total == {"dog": 2, "cat": 1, "water": 3, "man": 1}
        assert flat_counts(t)[("drink", S0, "dog")] == 2
        assert ("drink", S0, "water") not in flat_counts(t)

    def test_toy_groupings(self, toy_scorer):
        t = toy_scorer.table
        assert dict(t.nouns_for("drink", S0)) == {"dog": 2, "cat": 1}
        assert dict(t.nouns_for("missing", S0)) == {}
        assert dict(t.nouns_at(S1)) == {"water": 3}
        assert {v for v, _ in t.verb_position_total} == {"drink", "sleep"}
        assert set(t.position_total) == {S0, S1}

    def test_verb_positions_sorted(self, toy_scorer):
        assert toy_scorer.table.verb_positions() == [
            ("drink", S0),
            ("drink", S1),
            ("sleep", S0),
        ]

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError) as err:
            CountsTable({("drink", S0): {"cat": 1, "dog": 0}})
        assert str(err.value) == "count for ('drink', SynRel(code='0'), 'dog') must be >= 1, got 0"

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="^no nouns for verb 'drink' at position '0'$"):
            CountsTable({("drink", S1): {"water": 3}, ("drink", S0): {}})

    def test_groups_are_kept_not_copied(self):
        group = {"dog": 2, "cat": 1}
        assert CountsTable({("drink", S0): group}).nouns_for("drink", S0) is group

    def test_empty_table(self):
        t = CountsTable({})
        assert t.grand_total == 0
        assert t.total(S0) == 0
        assert t.verb_positions() == []


class TestAccumulate:
    def test_aggregates_duplicates(self):
        recs = [TripleRecord("drink", S0, "dog") for _ in range(3)]
        t = accumulate(recs)
        assert flat_counts(t) == {("drink", S0, "dog"): 3}

    def test_rejects_discards(self):
        bad = TripleRecord("drink", S0, "He", discard_reason="NonNounHead")
        with pytest.raises(ValueError, match="discarded triple"):
            accumulate([bad])


class TestCountsFiles:
    def test_read_counts(self):
        t = read_counts("drink\t0\tdog\t2\nsleep\t0\tman\t1\n")
        assert flat_counts(t)[("drink", S0, "dog")] == 2
        assert t.grand_total == 3

    def test_read_counts_sums_repeated_keys(self):
        t = read_counts("drink\t0\tdog\t2\ndrink\t0\tdog\t5\n")
        assert flat_counts(t) == {("drink", S0, "dog"): 7}

    def test_read_counts_field_count(self):
        with pytest.raises(ExtractionError, match="line 1: expected 4 fields"):
            read_counts("drink\t0\tdog\n")

    def test_read_counts_bad_int(self):
        with pytest.raises(ExtractionError, match="counts line 1"):
            read_counts("drink\t0\tdog\ttwo\n")

    def test_read_counts_nonpositive(self):
        with pytest.raises(ExtractionError, match="count must be >= 1"):
            read_counts("drink\t0\tdog\t0\n")

    def test_read_counts_empty_noun(self):
        with pytest.raises(ExtractionError) as err:
            read_counts("drink\t0\tdog\t1\ndrink\t1\t\t2\n")
        assert str(err.value) == "counts line 2: empty verb or noun"

    def test_read_counts_leading_tab_is_empty_verb(self):
        with pytest.raises(ExtractionError) as err:
            read_counts("\t0\tdog\t2\n")
        assert str(err.value) == "counts line 1: empty verb or noun"

    def test_read_counts_bad_relation(self):
        with pytest.raises(ExtractionError, match="counts line 1"):
            read_counts("drink\tSUBJ\tdog\t1\n")


class TestLexiconMisses:
    def test_misses(self, toy_scorer):
        assert lexicon_misses(toy_scorer.table, toy_scorer.lexicon) == set()
        extra = accumulate(
            [TripleRecord("drink", S0, "dog"), TripleRecord("drink", S0, "xyzzy")]
        )
        assert lexicon_misses(extra, toy_scorer.lexicon) == {"xyzzy"}


def toy_probs(v, s, c):
    """The reference (P(c|v,s), P(v|s), P(c|s), P(v,c|s)) of the toy world."""
    return oracle.cond_probs(TOY_TRIPLES, TOY_PARENTS, TOY_SENSES, v, s, c)


def assoc_of(p):
    """Selectional association from its four probabilities."""
    c_given_vs, v_given_s, c_given_s, vc_given_s = p
    return float(c_given_vs) * math.log2(vc_given_s / (v_given_s * c_given_s))


class TestCondProbs:
    """The probabilities behind assoc, pinned by hand on the reference, and
    the scorer's class sums and score that they imply."""

    def test_drink_subject_animal(self, toy_scorer):
        p = toy_probs("drink", "0", "animal")
        assert p == (Fraction(1), Fraction(3, 4), Fraction(3, 4), Fraction(3, 4))
        joint = toy_scorer.group_sums("drink", S0, RAW).joint["animal"]
        assert Fraction(joint, toy_scorer.table.vs_total("drink", S0)) == p[0]
        assert Fraction(joint, toy_scorer.table.total(S0)) == p[3]
        assert score(toy_scorer, ASSOC, "drink", S0, "animal") == assoc_of(p)

    def test_drink_subject_dog(self, toy_scorer):
        p = toy_probs("drink", "0", "dog")
        assert p == (Fraction(2, 3), Fraction(3, 4), Fraction(1, 2), Fraction(1, 2))
        assert toy_scorer.group_sums("drink", S0, RAW).joint["dog"] == 2
        assert score(toy_scorer, ASSOC, "drink", S0, "dog") == assoc_of(p)

    def test_unsupported_class_is_zero_joint(self, toy_scorer):
        p = toy_probs("drink", "0", "liquid")
        assert p[0] == 0
        assert p[3] == 0
        assert "liquid" not in toy_scorer.group_sums("drink", S0, RAW).joint

    def test_unknown_position_raises(self, toy_scorer):
        with pytest.raises(ZeroDenominatorError, match="position 'with'"):
            toy_scorer.scores(ASSOC, "drink", SynRel("with"), ["animal"])

    def test_unknown_verb_raises(self, toy_scorer):
        with pytest.raises(ZeroDenominatorError, match="verb 'eat'"):
            toy_scorer.scores(ASSOC, "eat", S0, ["animal"])


class TestAssoc:
    def test_frozen_values(self, toy_scorer):
        assert toy_scorer.scores(ASSOC, "drink", S0, ["animal", "dog", "cat"]) == pytest.approx(
            [0.41503749927884376, 0.2766916661858958, 0.1383458330929479], rel=1e-12
        )
        assert score(toy_scorer, ASSOC, "sleep", S0, "man") == pytest.approx(2.0, rel=1e-12)

    def test_universal_class_scores_exactly_zero(self, toy_scorer):
        # every subject noun is an entity, so the class carries no information
        assert score(toy_scorer, ASSOC, "drink", S0, "entity") == 0.0

    def test_zero_support_raises(self, toy_scorer):
        with pytest.raises(UnsupportedClassError, match="'liquid'"):
            score(toy_scorer, ASSOC, "drink", S0, "liquid")


class TestPairMi:
    def test_frozen_value(self, toy_scorer):
        assert score(toy_scorer, PAIR_MI, "drink", S0, "animal") == pytest.approx(
            1.222392421336448, rel=1e-12
        )

    def test_zero_support_raises(self, toy_scorer):
        with pytest.raises(UnsupportedClassError):
            score(toy_scorer, PAIR_MI, "drink", S0, "person")

    def test_empty_table_raises(self, toy_scorer):
        empty = Scorer(CountsTable({}), toy_scorer.lexicon)
        with pytest.raises(ZeroDenominatorError, match="empty counts table"):
            score(empty, PAIR_MI, "drink", S0, "animal")


class TestLogLikelihoodRatio:
    # signed_g2(k11, first column total, first row total, grand total) of
    # the table [[k11, k12], [k21, k22]]
    def test_frozen_tables(self):
        assert signed_g2(3, 3, 3, 4) == pytest.approx(4.498681156950466, rel=1e-12)
        assert signed_g2(2, 2, 3, 4) == pytest.approx(1.7260924347106852, rel=1e-12)

    def test_below_expectation_is_negative(self):
        # [[0, 3], [3, 0]]
        assert signed_g2(0, 3, 3, 6) == pytest.approx(-8.317766166719343, rel=1e-12)

    def test_exact_independence_is_zero(self):
        assert signed_g2(1, 2, 2, 4) == 0.0
        # [[2, 4], [3, 6]]
        assert signed_g2(2, 5, 6, 15) == 0.0

    def test_zero_margins_are_zero(self):
        assert signed_g2(5, 5, 5, 5) == 0.0
        # [[0, 0], [2, 3]]
        assert signed_g2(0, 2, 0, 5) == 0.0
        assert signed_g2(0, 0, 0, 0) == 0.0

    def test_symmetry_in_magnitude(self):
        # swapping rows flips which verb is "this one" but not the evidence
        a = signed_g2(3, 3, 3, 4)
        b = signed_g2(0, 3, 1, 4)  # [[0, 1], [3, 0]]
        assert a == pytest.approx(-b, rel=1e-12)


class TestScorerG2:
    def test_frozen_values(self, toy_scorer):
        assert score(toy_scorer, G2, "drink", S0, "dog") == pytest.approx(
            1.7260924347106852, rel=1e-12
        )
        assert score(toy_scorer, G2, "drink", S0, "animal") == pytest.approx(
            4.498681156950466, rel=1e-12
        )
        assert score(toy_scorer, G2, "sleep", S0, "man") == pytest.approx(
            4.498681156950466, rel=1e-12
        )

    def test_universal_class_is_zero(self, toy_scorer):
        # entity covers the whole position: one column margin collapses
        assert score(toy_scorer, G2, "drink", S0, "entity") == 0.0

    def test_unknown_position_raises(self, toy_scorer):
        with pytest.raises(ZeroDenominatorError):
            score(toy_scorer, G2, "drink", SynRel("with"), "animal")


class TestScoreDispatch:
    def test_kinds_route_to_functions(self, toy_scorer):
        # Each kind gives its own measure, for a list of classes in one call.
        classes = ["animal", "dog", "entity"]
        world = (TOY_TRIPLES, TOY_PARENTS, TOY_SENSES, "drink", "0")
        expected = {
            ASSOC: [oracle.assoc(*world, c) for c in classes],
            PAIR_MI: [oracle.pair_mi(*world, c) for c in classes],
            G2: [oracle.g2(*oracle.g2_table(*world, c)) for c in classes],
        }
        for kind, want in expected.items():
            assert toy_scorer.scores(kind, "drink", S0, classes) == want

    def test_estimator_kind_values(self):
        assert EstimatorKind("raw") is EstimatorKind.RAW
        assert EstimatorKind("sense") is EstimatorKind.SENSE_CORRECTED
        assert ScoreKind("g2") is ScoreKind.LOG_LIKELIHOOD_RATIO


POSITION_0 = (ZeroDenominatorError, "no observations at position '0'")
EMPTY_TABLE = (ZeroDenominatorError, "empty counts table")
NO_VERB = (ZeroDenominatorError, "no observations of verb 'eat' at position '0'")


def unsupported(c, v, s):
    return (UnsupportedClassError, f"class {c!r} has no support with verb {v!r} at position {s!r}")


# situation, scored on the empty table?, verb, position, classes, and the
# result or (exception, message) of assoc, pairmi and g2, under either
# estimator
SCORER_EDGES = [
    ("empty-table", True, "drink", "0", ["animal"], POSITION_0, EMPTY_TABLE, POSITION_0),
    ("unseen-position", False, "drink", "with", ["animal"],
     (ZeroDenominatorError, "no observations at position 'with'"),
     (ZeroDenominatorError, "no observations of verb 'drink' at position 'with'"),
     (ZeroDenominatorError, "no observations at position 'with'")),
    ("unseen-verb", False, "eat", "0", ["animal"], NO_VERB, NO_VERB, [0.0]),
    ("unsupported-class", False, "drink", "0", ["liquid"], unsupported("liquid", "drink", "0"),
     unsupported("liquid", "drink", "0"), [0.0]),
    ("no-classes-unseen-verb", False, "eat", "0", [], NO_VERB, NO_VERB, []),
    ("no-classes-empty-table", True, "drink", "0", [], POSITION_0, EMPTY_TABLE, POSITION_0),
]


@pytest.mark.parametrize("est", list(EstimatorKind), ids=lambda e: e.value)
@pytest.mark.parametrize("kind", list(ScoreKind), ids=lambda k: k.value)
@pytest.mark.parametrize(
    "on_empty, v, s, classes, wants", [(*c[1:5], c[5:]) for c in SCORER_EDGES],
    ids=[c[0] for c in SCORER_EDGES],
)
def test_scorer_edge_cases(toy_scorer, on_empty, v, s, classes, wants, kind, est):
    scorer = Scorer(CountsTable({}), toy_scorer.lexicon) if on_empty else toy_scorer
    want = wants[list(ScoreKind).index(kind)]
    if isinstance(want, list):
        assert scorer.scores(kind, v, SynRel(s), classes, est) == want
        return
    error, message = want
    with pytest.raises(ValueError) as err:
        scorer.scores(kind, v, SynRel(s), classes, est)
    assert (type(err.value), str(err.value)) == (error, message)


AMBIG_PARENTS = {
    "entity": set(),
    "animal": {"entity"},
    "machine": {"entity"},
}
AMBIG_SENSES = {
    "crane": frozenset({"animal", "machine"}),
    "dog": frozenset({"animal"}),
}
AMBIG_TRIPLES = [("lift", "1", "crane")] * 2 + [("lift", "1", "dog")]


@pytest.fixture(scope="module")
def ambig_scorer():
    return build_world(AMBIG_PARENTS, AMBIG_SENSES, AMBIG_TRIPLES)


def unscaled(scorer, v, s, est):
    """The estimator's class sums of (v, s) as the rationals they stand for."""
    scale = scorer.sense_scale if est is SENSE else 1
    return {c: Fraction(k, scale) for c, k in scorer.group_sums(v, s, est).joint.items()}


class TestSenseCorrected:
    """Ambiguous nouns split their occurrences across their sense classes."""

    def test_raw_counts_whole_occurrences(self, ambig_scorer):
        joint = ambig_scorer.group_sums("lift", S1, RAW).joint
        assert joint == {"animal": 3, "machine": 2, "entity": 3}

    def test_sense_corrected_counts_are_fractions(self, ambig_scorer):
        sums = unscaled(ambig_scorer, "lift", S1, SENSE)
        # both crane senses sit under entity, so no mass is lost there
        assert sums == {"animal": 2, "machine": 1, "entity": 3}
        for c, k in sums.items():
            assert k == oracle.class_count(
                AMBIG_TRIPLES, AMBIG_PARENTS, AMBIG_SENSES, "lift", "1", c, True
            )

    def test_sense_corrected_cond_probs(self, ambig_scorer):
        world = (AMBIG_TRIPLES, AMBIG_PARENTS, AMBIG_SENSES, "lift", "1", "machine", True)
        p = oracle.cond_probs(*world)
        assert p[0] == Fraction(1, 3)
        assert p[2] == Fraction(1, 3)
        assert score(ambig_scorer, ASSOC, "lift", S1, "machine", SENSE) == assoc_of(p)

    def test_sibling_counts_sum_to_raw(self, ambig_scorer):
        joint = ambig_scorer.group_sums("lift", S1, SENSE).joint
        assert joint["animal"] + joint["machine"] == joint["entity"]

    def test_support_ignores_unknown_nouns(self):
        probe = build_world(
            AMBIG_PARENTS, AMBIG_SENSES, AMBIG_TRIPLES + [("lift", "1", "mystery")]
        )
        assert probe.group_sums("lift", S1, RAW).joint["entity"] == 3
        # but the raw totals still include the unknown noun
        assert probe.table.vs_total("lift", S1) == 4


# nouns with 3, 4 and 5 senses: the sense scale is lcm(3, 4, 5) = 60
WIDE_PARENTS = {"top": set(), "left": {"top"}, "right": {"top"}} | {
    f"s{k}": {"left" if k % 2 else "right"} for k in range(5)
}
WIDE_SENSES = {
    "three": frozenset({"s0", "s1", "s2"}),
    "four": frozenset({"s0", "s1", "s2", "s3"}),
    "five": frozenset({f"s{k}" for k in range(5)}),
    "one": frozenset({"s4"}),
}
WIDE_TRIPLES = (
    [("see", "1", "three")] * 2
    + [("see", "1", "four")]
    + [("see", "1", "five")] * 3
    + [("hear", "1", "four")] * 2
    + [("hear", "1", "one")]
    + [("hear", "1", "unknown")]
)


class TestSenseScale:
    """Sense-corrected sums are integers scaled by the LCM of the sense counts."""

    @pytest.fixture(scope="class")
    def wide(self):
        return build_world(WIDE_PARENTS, WIDE_SENSES, WIDE_TRIPLES)

    def test_scale_is_lcm_of_lexicon_nouns_sense_counts(self, wide):
        assert wide.sense_scale == 60
        assert build_world(TOY_PARENTS, TOY_SENSES, TOY_TRIPLES).sense_scale == 1

    def test_counts_are_unscaled_fractions(self, wide):
        see = unscaled(wide, "see", S1, SENSE)
        hear = unscaled(wide, "hear", S1, SENSE)
        # left holds s1, s3: 2 * 1/3 + 1 * 2/4 + 3 * 2/5
        assert see["left"] == Fraction(2, 3) + Fraction(1, 2) + Fraction(6, 5)
        assert see["s0"] == Fraction(2, 3) + Fraction(1, 4) + Fraction(3, 5)
        # every triple is an object, so the position sums are the table's
        assert see["top"] + hear["top"] == 9
        assert see["s4"] + hear["s4"] == Fraction(3, 5) + 1

    @pytest.mark.parametrize("kind", list(ScoreKind))
    def test_scores_equal_fraction_path(self, wide, kind):
        for v in ("see", "hear"):
            classes = sorted(wide.group_sums(v, S1, SENSE).joint)
            got = wide.scores(kind, v, S1, classes, SENSE)
            for cls, value in zip(classes, got):
                world = (WIDE_TRIPLES, WIDE_PARENTS, WIDE_SENSES, v, "1", cls, True)
                if kind is ASSOC:
                    ref = oracle.assoc(*world)
                elif kind is PAIR_MI:
                    ref = oracle.pair_mi(*world)
                else:
                    ref = oracle.g2(*oracle.g2_table(*world))
                assert value == ref


class TestToyTriplesFixtureAgreement:
    def test_conftest_world_matches_bundled_counts(self, toy_scorer, data_dir):
        bundled = read_counts((data_dir / "toy_counts.tsv").read_text(encoding="utf-8"))
        assert flat_counts(bundled) == flat_counts(toy_scorer.table)
        assert len(TOY_TRIPLES) == bundled.grand_total
        assert set(TOY_PARENTS) >= {c for s in TOY_SENSES.values() for c in s}
