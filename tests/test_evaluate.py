"""Evaluation tests: fulfillment, the two ratios, diagnostics, and the
gold / label file formats.  The toy report goldens were derived by hand
from the 5-line gold file before being frozen here."""

import json
from decimal import Decimal
from fractions import Fraction

import pytest

import oracle
from conftest import TOY_PARENTS, TOY_SENSES, build_world
from helpers import nodes, nouns, parents
from selrestr import evaluate
from selrestr.evaluate import (
    LEMMA_ERR,
    PARSER_ERR,
    DiagnosticLabel,
    EvalReport,
    GoldTriple,
    diagnostic_summary,
    evaluate_gold,
    fulfills,
    occurrence_count,
    percentage,
    read_gold,
    read_labels,
    render_diagnostics,
)
from selrestr.extract import PENN
from selrestr.restrictions import SelectionalRestriction, read_restrictions
from selrestr.taxonomy import load_taxonomy
from selrestr.triples import ExtractionError, SynRel, TripleRecord

S0 = SynRel("0")
S1 = SynRel("1")

ANIMAL_SR = SelectionalRestriction("drink", S0, "animal", 0.415037, 2, 3)


@pytest.mark.parametrize(
    "record, field",
    [
        (ANIMAL_SR, "score"),
        (GoldTriple(TripleRecord("drink", S0, "dog")), "correct_sense"),
        (EvalReport(0, 0, 0, 0, 0, 0, 0, None, None), "precision"),
        (PENN, "noun_tags"),
    ],
    ids=lambda value: type(value).__name__ if not isinstance(value, str) else value,
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@pytest.fixture(scope="module")
def toy_lexicon():
    return build_world(TOY_PARENTS, TOY_SENSES, [("drink", "0", "dog")]).lexicon


@pytest.fixture(scope="module")
def toy_eval(data_dir):
    tax, lex = load_taxonomy(
        (data_dir / "toy_taxonomy.tsv").read_text(encoding="utf-8"),
        (data_dir / "toy_lexicon.tsv").read_text(encoding="utf-8"),
    )
    gold = read_gold((data_dir / "toy_gold.tsv").read_text(encoding="utf-8"))
    srs = read_restrictions((data_dir / "toy_srs.tsv").read_text(encoding="utf-8"))
    labels = read_labels((data_dir / "toy_labels.tsv").read_text(encoding="utf-8"))
    return gold, srs, lex, labels


class TestPercentage:
    @pytest.mark.parametrize(
        "part,whole,expected",
        [
            (1, 2, "50.0"),
            (1, 3, "33.3"),
            (2, 3, "66.7"),
            (1, 8, "12.5"),
            (1, 16, "6.3"),  # 6.25 rounds up, not to even
            (0, 5, "0.0"),
            (5, 5, "100.0"),
        ],
    )
    def test_values(self, part, whole, expected):
        got = percentage(part, whole)
        assert got == Decimal(expected)
        assert str(got) == expected

    def test_zero_whole(self):
        assert percentage(3, 0) == Decimal("0.0")


class TestFulfills:
    def test_noun_under_class(self, toy_lexicon):
        tr = TripleRecord("drink", S0, "dog")
        assert fulfills(tr, [ANIMAL_SR], toy_lexicon)

    def test_wrong_position(self, toy_lexicon):
        tr = TripleRecord("drink", S1, "dog")
        assert not fulfills(tr, [ANIMAL_SR], toy_lexicon)

    def test_wrong_verb(self, toy_lexicon):
        tr = TripleRecord("sleep", S0, "dog")
        assert not fulfills(tr, [ANIMAL_SR], toy_lexicon)

    def test_noun_outside_class(self, toy_lexicon):
        tr = TripleRecord("drink", S0, "man")
        assert not fulfills(tr, [ANIMAL_SR], toy_lexicon)

    def test_unknown_noun_is_false(self, toy_lexicon):
        tr = TripleRecord("drink", S0, "xyzzy")
        assert not fulfills(tr, [ANIMAL_SR], toy_lexicon)

    def test_no_restrictions(self, toy_lexicon):
        assert not fulfills(TripleRecord("drink", S0, "dog"), [], toy_lexicon)

    def test_discarded_triple_rejected(self, toy_lexicon):
        bad = TripleRecord("drink", S0, "He", discard_reason="NonNounHead")
        with pytest.raises(ValueError, match="discarded"):
            fulfills(bad, [ANIMAL_SR], toy_lexicon)


def ratios(triples, lexicon):
    """(precision, recall) of ``ANIMAL_SR`` over ``triples`` taken as gold."""
    report = evaluate_gold([GoldTriple(t) for t in triples], [ANIMAL_SR], lexicon)
    return report.precision, report.recall


class TestRatios:
    TRIPLES = [
        TripleRecord("drink", S0, "dog"),
        TripleRecord("drink", S0, "man"),
        TripleRecord("drink", S1, "water"),
    ]

    def test_precision_counts_restricted_positions_only(self, toy_lexicon):
        assert ratios(self.TRIPLES, toy_lexicon)[0] == Fraction(1, 2)

    def test_recall_counts_everything(self, toy_lexicon):
        assert ratios(self.TRIPLES, toy_lexicon)[1] == Fraction(1, 3)

    def test_precision_can_exceed_recall(self, toy_lexicon):
        p, r = ratios(self.TRIPLES, toy_lexicon)
        assert p > r

    def test_no_restricted_positions_gives_none(self, toy_lexicon):
        only_obj = [TripleRecord("drink", S1, "water")]
        assert ratios(only_obj, toy_lexicon) == (None, Fraction(0))

    def test_empty_pool_gives_none(self, toy_lexicon):
        assert ratios([], toy_lexicon) == (None, None)

    def test_discarded_record_raises(self, toy_lexicon):
        # The gold reader never builds one; a library caller's discarded
        # record is an error, not a record left out of some totals only.
        noisy = self.TRIPLES + [
            TripleRecord("drink", S0, "He", discard_reason="NonNounHead")
        ]
        with pytest.raises(ValueError, match="cannot evaluate a discarded triple"):
            ratios(noisy, toy_lexicon)


class TestDiagnosticSummary:
    def test_aggregation_and_percentages(self):
        rows = diagnostic_summary(
            [
                ("k1", DiagnosticLabel.OK, 10),
                ("k2", DiagnosticLabel.OK, 5),
                ("k3", DiagnosticLabel.NOISE, 5),
            ]
        )
        by_label = {r.label: r for r in rows}
        ok = by_label["Ok"]
        assert (ok.classes, ok.occurrences) == (2, 15)
        assert (ok.class_pct, ok.occurrence_pct) == (Decimal("66.7"), Decimal("75.0"))
        noise = by_label["Noise"]
        assert (noise.class_pct, noise.occurrence_pct) == (
            Decimal("33.3"),
            Decimal("25.0"),
        )
        total = by_label["Total"]
        assert (total.classes, total.occurrences) == (3, 20)
        assert total.class_pct == Decimal("100.0")

    def test_canonical_row_order(self):
        rows = diagnostic_summary([])
        assert [r.label for r in rows] == [
            "Ok",
            "UpAbs",
            "DownAbs",
            "Senses",
            "Noise",
            "Total",
        ]
        assert all(r.classes == 0 and r.class_pct == Decimal("0.0") for r in rows)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate diagnostic label"):
            diagnostic_summary(
                [("k", DiagnosticLabel.OK, 1), ("k", DiagnosticLabel.NOISE, 1)]
            )

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative occurrence count"):
            diagnostic_summary([("k", DiagnosticLabel.OK, -1)])


class TestReadGold:
    def test_three_field_form(self):
        gold = read_gold("drink\t0\tdog\n")
        assert len(gold) == 1
        g = gold[0]
        assert g.record == TripleRecord("drink", S0, "dog")
        assert g.correct_sense is None
        assert g.extraction_ok

    def test_five_field_form(self):
        gold = read_gold("drink\t0\tdog\tdog\tok\nsleep\t0\tman\t-\tparser_err\n")
        assert gold[0].correct_sense == "dog"
        assert gold[0].error is None
        assert gold[1].correct_sense is None
        assert gold[1].error == PARSER_ERR
        assert not gold[1].extraction_ok

    def test_lemma_err_status(self):
        gold = read_gold("a\t0\tb\t-\tlemma_err\n")
        assert gold[0].error == LEMMA_ERR

    def test_bad_field_count(self):
        with pytest.raises(ExtractionError, match="expected 3 or 5 fields, got 4"):
            read_gold("drink\t0\tdog\tdog\n")

    def test_bad_status(self):
        with pytest.raises(ExtractionError, match="bad status 'maybe'"):
            read_gold("drink\t0\tdog\tdog\tmaybe\n")

    def test_bad_relation(self):
        with pytest.raises(ExtractionError, match="gold line 1"):
            read_gold("drink\tSUBJ\tdog\n")


class TestReadLabels:
    def test_four_field_form(self):
        rows = read_labels("drink\t0\tanimal\tOk\n")
        assert rows == [("drink", S0, "animal", DiagnosticLabel.OK, None)]

    def test_five_field_form(self):
        rows = read_labels("drink\t0\tanimal\tSenses\t42\n")
        assert rows[0][3] is DiagnosticLabel.SENSES
        assert rows[0][4] == 42

    def test_unknown_label(self):
        with pytest.raises(ExtractionError, match="unknown label 'Fine'"):
            read_labels("drink\t0\tanimal\tFine\n")

    def test_duplicate_key(self):
        text = "drink\t0\tanimal\tOk\ndrink\t0\tanimal\tNoise\n"
        with pytest.raises(ExtractionError, match="line 2: duplicate label"):
            read_labels(text)

    def test_same_class_different_position_allowed(self):
        rows = read_labels("drink\t0\tanimal\tOk\ndrink\t1\tanimal\tNoise\n")
        assert len(rows) == 2

    def test_bad_count(self):
        with pytest.raises(ExtractionError, match="bad occurrence count 'many'"):
            read_labels("drink\t0\tanimal\tOk\tmany\n")

    def test_negative_count(self):
        with pytest.raises(ExtractionError, match="negative occurrence count"):
            read_labels("drink\t0\tanimal\tOk\t-3\n")

    def test_bad_field_count(self):
        with pytest.raises(ExtractionError, match="expected 4 or 5 fields"):
            read_labels("drink\t0\tanimal\n")


class TestOccurrenceCount:
    def test_counts_class_members_at_position(self, toy_lexicon):
        triples = [
            TripleRecord("drink", S0, "dog"),
            TripleRecord("drink", S0, "dog"),
            TripleRecord("drink", S0, "man"),
            TripleRecord("drink", S1, "dog"),
            TripleRecord("drink", S0, "xyzzy"),
        ]
        assert occurrence_count(triples, "drink", S0, "animal", toy_lexicon) == 2
        assert occurrence_count(triples, "drink", S0, "entity", toy_lexicon) == 3
        assert occurrence_count(triples, "drink", S1, "animal", toy_lexicon) == 1


class TestEvaluateGold:
    def test_toy_report_numbers(self, toy_eval):
        gold, srs, lex, _ = toy_eval
        report = evaluate_gold(gold, srs, lex)
        assert report.gold_total == 5
        assert (report.excluded_parser, report.excluded_lemma) == (1, 1)
        assert report.evaluated == 3
        assert report.lexicon_covered == 3
        assert (report.sense_annotated, report.sense_covered) == (3, 3)
        assert report.precision == Fraction(1, 2)
        assert report.recall == Fraction(1, 3)
        assert report.diagnostics is None

    def test_toy_ratios_match_pairwise_reference(self, toy_eval):
        gold, srs, lex, labels = toy_eval
        tax = lex.taxonomy
        parent_map = {c: set(parents(tax, c)) for c in nodes(tax)}
        senses = {n: lex.senses(n) for n in nouns(lex)}
        plain_gold = [
            (g.record.verb, g.record.rel.code, g.record.noun) for g in gold if g.extraction_ok
        ]
        plain_srs = {(sr.verb, sr.rel.code, sr.class_id) for sr in srs}
        expected = oracle.eval_ratios(plain_gold, parent_map, senses, plain_srs)
        for with_labels in (None, labels):
            report = evaluate_gold(gold, srs, lex, with_labels)
            assert (report.precision, report.recall) == expected

    def test_fulfills_runs_once_per_evaluated_triple(self, toy_eval, toy_lexicon, monkeypatch):
        # What the benchmark tracer counts as evaluate.fulfills_calls: one
        # call per evaluated triple, at a restricted position or not, with
        # its noun in the lexicon or not.
        calls = []
        real = evaluate.fulfills

        def counting(tr, srs, lexicon):
            calls.append(tr)
            return real(tr, srs, lexicon)

        monkeypatch.setattr(evaluate, "fulfills", counting)
        gold, srs, lex, labels = toy_eval
        more = [
            GoldTriple(TripleRecord("drink", S0, "dog")),
            GoldTriple(TripleRecord("drink", S1, "water")),
            GoldTriple(TripleRecord("drink", S0, "xyzzy")),
            GoldTriple(TripleRecord("sleep", S0, "man"), error=PARSER_ERR),
        ]
        for args in ((gold, srs, lex), (gold, srs, lex, labels), (more, [ANIMAL_SR], toy_lexicon)):
            calls.clear()
            report = evaluate_gold(*args)
            assert len(calls) == report.evaluated > 0
            assert calls == [g.record for g in args[0] if g.extraction_ok]

    def test_toy_render_text_golden(self, toy_eval):
        gold, srs, lex, _ = toy_eval
        assert evaluate_gold(gold, srs, lex).render_text() == (
            "gold triples     5\n"
            "excluded         2 (parser 1, lemma 1)\n"
            "evaluated        3\n"
            "noun in lexicon  3/3 (100.0%)\n"
            "sense covered    3/3 (100.0%)\n"
            "precision        0.500 (1/2)\n"
            "recall           0.333 (1/3)\n"
        )

    def test_toy_labeled_render_golden(self, toy_eval):
        gold, srs, lex, labels = toy_eval
        text = evaluate_gold(gold, srs, lex, labels).render_text()
        assert text.endswith(
            "label    classes  class%  occurrences   occ%\n"
            "Ok             1   100.0            1  100.0\n"
            "UpAbs          0     0.0            0    0.0\n"
            "DownAbs        0     0.0            0    0.0\n"
            "Senses         0     0.0            0    0.0\n"
            "Noise          0     0.0            0    0.0\n"
            "Total          1   100.0            1  100.0\n"
        )

    def test_label_count_recounted_from_gold(self, toy_eval):
        gold, srs, lex, labels = toy_eval
        report = evaluate_gold(gold, srs, lex, labels)
        ok = next(r for r in report.diagnostics if r.label == "Ok")
        # only the dog triple falls under animal at (drink, subject)
        assert ok.occurrences == 1

    def test_label_count_override_wins(self, toy_eval):
        gold, srs, lex, _ = toy_eval
        labels = read_labels("drink\t0\tanimal\tOk\t99\n")
        report = evaluate_gold(gold, srs, lex, labels)
        ok = next(r for r in report.diagnostics if r.label == "Ok")
        assert ok.occurrences == 99

    def test_sense_coverage_semantics(self, toy_lexicon):
        gold = [
            GoldTriple(TripleRecord("drink", S0, "dog"), correct_sense="dog"),
            # annotated with a class that is not a sense of the noun
            GoldTriple(TripleRecord("drink", S0, "man"), correct_sense="animal"),
            # unknown noun cannot be sense-covered
            GoldTriple(TripleRecord("drink", S0, "xyzzy"), correct_sense="dog"),
            # unannotated triples do not enter the denominator
            GoldTriple(TripleRecord("drink", S0, "cat")),
        ]
        report = evaluate_gold(gold, [ANIMAL_SR], toy_lexicon)
        assert report.sense_annotated == 3
        assert report.sense_covered == 1
        assert report.lexicon_covered == 3

    def test_excluded_triples_leave_all_pools(self, toy_lexicon):
        gold = [
            GoldTriple(TripleRecord("drink", S0, "dog"), "dog", None),
            GoldTriple(TripleRecord("drink", S0, "cat"), "cat", PARSER_ERR),
        ]
        report = evaluate_gold(gold, [ANIMAL_SR], toy_lexicon)
        assert report.evaluated == 1
        assert report.sense_annotated == 1
        assert report.precision == Fraction(1, 1)
        assert report.recall == Fraction(1, 1)


class TestReportSerialization:
    def test_to_dict_round_trips_through_json(self, toy_eval):
        gold, srs, lex, labels = toy_eval
        report = evaluate_gold(gold, srs, lex, labels)
        data = json.loads(report.render_json())
        assert data["precision"] == {
            "value": 0.5,
            "numerator": 1,
            "denominator": 2,
        }
        assert data["recall"]["denominator"] == 3
        assert data["excluded"] == {"parser": 1, "lemma": 1}
        assert data["diagnostics"][0] == {
            "label": "Ok",
            "classes": 1,
            "class_pct": "100.0",
            "occurrences": 1,
            "occurrence_pct": "100.0",
        }
        assert len(data["diagnostics"]) == 6

    def test_none_ratios_render_na(self):
        report = EvalReport(
            gold_total=0,
            excluded_parser=0,
            excluded_lemma=0,
            evaluated=0,
            lexicon_covered=0,
            sense_annotated=0,
            sense_covered=0,
            precision=None,
            recall=None,
        )
        text = report.render_text()
        assert "precision        N/A" in text
        assert "recall           N/A" in text
        assert json.loads(report.render_json())["precision"] is None

    def test_render_diagnostics_alignment(self):
        rows = diagnostic_summary([("k", DiagnosticLabel.SENSES, 1234567)])
        lines = render_diagnostics(rows)
        # every numeric column lines up on its right edge
        header = lines[0]
        occ_edge = header.index("occurrences") + len("occurrences")
        senses_line = next(l for l in lines if l.startswith("Senses"))
        assert senses_line[occ_edge - 7 : occ_edge] == "1234567"
