import random
import sys

import pytest

from selrestr.taxonomy import (
    SenseLexicon,
    Taxonomy,
    TaxonomyError,
    _check_class_id,
    load_taxonomy,
    parse_lexicon,
    parse_taxonomy,
)

from helpers import check_partial_order, nodes, parents
from worlds import make_world, taxonomy_text


MINIMAL = "entity\t-\nanimal\tentity\n"

WHITESPACE = [chr(i) for i in range(sys.maxunicode + 1) if chr(i).isspace()]
# The line rule ends a line or a field at the others before any check sees them.
IN_A_FIELD = [ch for ch in WHITESPACE if ch != "\t" and len(f"a{ch}b".splitlines()) == 1]


def code_point(ch):
    return f"U+{ord(ch):04X}"


class TestParsing:
    def test_minimal_taxonomy_and_lexicon(self):
        tax, lex = load_taxonomy(MINIMAL, "dog\tanimal\n")
        assert sorted(nodes(tax)) == ["animal", "entity"]
        assert lex.senses("dog") == {"animal"}

    def test_comments_and_blank_lines_ignored(self):
        tax = parse_taxonomy("# classes\n\nentity\t-\n\nanimal\tentity\n")
        assert len(nodes(tax)) == 2

    def test_multiple_parents(self):
        tax = parse_taxonomy("a\t-\nb\t-\nc\ta,b\n")
        assert parents(tax, "c") == frozenset({"a", "b"})

    def test_forward_reference_is_allowed(self):
        tax = parse_taxonomy("animal\tentity\nentity\t-\n")
        assert tax.hypernym_closure("animal") == {"animal", "entity"}

    def test_duplicate_class_reports_line(self):
        with pytest.raises(TaxonomyError, match="line 3"):
            parse_taxonomy("a\t-\nb\ta\na\t-\n")

    def test_dangling_parent_reports_line(self):
        with pytest.raises(TaxonomyError, match="unknown parent 'ghost'"):
            parse_taxonomy("a\t-\nb\tghost\n")

    def test_built_in_code_refuses_a_dangling_parent_before_a_cycle(self):
        # The file reader names the line first; a library caller gets the
        # first class, in the given order, that names an unknown parent,
        # even when the map also holds a cycle.
        with pytest.raises(TaxonomyError) as err:
            Taxonomy({"a": {"c"}, "b": {"ghost"}, "c": {"a"}, "d": {"phantom"}})
        assert str(err.value) == "class 'b' names unknown parent 'ghost'"

    def test_cycle_detected(self):
        with pytest.raises(TaxonomyError, match="cycle"):
            parse_taxonomy("a\tb\nb\ta\n")

    def test_self_loop_detected(self):
        with pytest.raises(TaxonomyError, match="cycle"):
            parse_taxonomy("a\ta\n")

    def test_bad_field_count(self):
        with pytest.raises(TaxonomyError, match="line 1"):
            parse_taxonomy("justone\n")

    def test_lexicon_unknown_class(self):
        tax = parse_taxonomy(MINIMAL)
        with pytest.raises(TaxonomyError, match="unknown class 'fish'"):
            parse_lexicon("dog\tfish\n", tax)

    def test_lexicon_duplicate_noun(self):
        tax = parse_taxonomy(MINIMAL)
        with pytest.raises(TaxonomyError, match="duplicate lexicon entry"):
            parse_lexicon("dog\tanimal\ndog\tentity\n", tax)

    def test_lexicon_empty_sense_list(self):
        tax = parse_taxonomy(MINIMAL)
        with pytest.raises(TaxonomyError) as err:
            parse_lexicon("dog\t\n", tax)
        assert str(err.value) == "lexicon line 1: empty sense list for noun 'dog'"

    def test_lexicon_built_in_code_refuses_an_empty_sense_set(self):
        # It used to be taken, and the sense estimator's scale became 0:
        # learn_all then blamed a class for having no support.
        tax = parse_taxonomy("a\t-\nb\ta\n")
        with pytest.raises(TaxonomyError) as err:
            SenseLexicon(tax, {"x": frozenset(), "y": frozenset({"b"})})
        assert str(err.value) == "empty sense list for noun 'x'"

    @pytest.mark.parametrize("ch", WHITESPACE, ids=code_point)
    def test_class_id_check_rejects_every_whitespace_character(self, ch):
        token = f"a{ch}b"
        with pytest.raises(TaxonomyError) as err:
            _check_class_id(token)
        assert str(err.value) == f"class id {token!r} contains whitespace"

    @pytest.mark.parametrize("ch", IN_A_FIELD, ids=code_point)
    def test_whitespace_in_a_name_is_rejected_with_its_line(self, ch):
        bad = f"a{ch}b"
        tax = parse_taxonomy(MINIMAL)
        in_class = f"line 2: class id {bad!r} contains whitespace"
        cases = [
            (parse_taxonomy, f"entity\t-\n{bad}\tentity\n", "taxonomy " + in_class),
            (parse_taxonomy, f"entity\t-\nanimal\tentity,{bad}\n", "taxonomy " + in_class),
            (lambda text: parse_lexicon(text, tax), f"dog\tanimal\n{bad}\tanimal\n",
             f"lexicon line 2: bad noun lemma {bad!r}"),
            (lambda text: parse_lexicon(text, tax), f"dog\tanimal\ncat\t{bad}\n",
             "lexicon " + in_class),
        ]
        for parse, text, message in cases:
            with pytest.raises(TaxonomyError) as err:
                parse(text)
            assert str(err.value) == message

    @pytest.mark.parametrize("text", ["entity\t-\n\tentity\n", "entity\t-\nanimal\tentity,\n"])
    def test_empty_class_id(self, text):
        with pytest.raises(TaxonomyError) as err:
            parse_taxonomy(text)
        assert str(err.value) == "taxonomy line 2: empty class id"

    def test_duplicate_senses_collapse(self):
        tax = parse_taxonomy(MINIMAL)
        lex = parse_lexicon("dog\tanimal,animal\n", tax)
        assert len(lex.senses("dog")) == 1


class TestClosure:
    def test_chain_closure(self):
        tax = parse_taxonomy("entity\t-\nanimal\tentity\ndog\tanimal\n")
        assert tax.hypernym_closure("dog") == {"dog", "animal", "entity"}

    def test_closure_is_reflexive(self):
        tax = parse_taxonomy(MINIMAL)
        assert "entity" in tax.hypernym_closure("entity")

    def test_diamond_counted_once(self):
        # two paths to the same root must not duplicate anything
        tax = parse_taxonomy("r\t-\na\tr\nb\tr\nd\ta,b\n")
        assert tax.hypernym_closure("d") == {"d", "a", "b", "r"}

    def test_ancestor_queries(self):
        tax = parse_taxonomy("entity\t-\nanimal\tentity\ndog\tanimal\n")
        assert "entity" in tax.hypernym_closure("dog")
        assert "dog" not in tax.hypernym_closure("entity")
        assert tax.related("dog", "entity")
        assert tax.related("entity", "dog")

    def test_siblings_unrelated(self):
        tax = parse_taxonomy("r\t-\na\tr\nb\tr\n")
        assert not tax.related("a", "b")

    def test_unknown_class_raises(self):
        tax = parse_taxonomy(MINIMAL)
        with pytest.raises(TaxonomyError, match="unknown class"):
            tax.hypernym_closure("nope")

    @pytest.mark.parametrize(
        "a, b, unknown", [("nope", "entity", "nope"), ("entity", "nope", "nope"), ("x", "y", "x")]
    )
    def test_related_unknown_class_raises(self, a, b, unknown):
        tax = parse_taxonomy(MINIMAL)
        with pytest.raises(TaxonomyError, match=f"unknown class '{unknown}'"):
            tax.related(a, b)

    def test_deep_chain_no_recursion_limit(self):
        n = 10_000
        lines = ["c0\t-"] + [f"c{i}\tc{i - 1}" for i in range(1, n)]
        tax = parse_taxonomy("\n".join(lines))
        assert len(tax.hypernym_closure(f"c{n - 1}")) == n

    def test_random_worlds_form_partial_orders(self):
        rng = random.Random(4021)
        for _ in range(25):
            parents, _, _ = make_world(rng)
            tax = parse_taxonomy(taxonomy_text(parents))
            assert check_partial_order(tax)


class TestSenseLexicon:
    @pytest.fixture()
    def lex(self):
        tax = parse_taxonomy(
            "entity\t-\nanimal\tentity\ndog\tanimal\nliquid\tentity\nwater\tliquid\n"
        )
        return parse_lexicon("dog\tdog\nbank\tanimal,liquid\n", tax)

    def test_noun_in_class(self, lex):
        assert "animal" in lex.sense_hits("dog")
        assert "liquid" not in lex.sense_hits("dog")

    def test_membership(self, lex):
        assert "dog" in lex
        assert "cat" not in lex

    def test_sense_fraction_split(self, lex):
        # the fraction of a noun's senses under a class is hits / senses;
        # the keys are the union of the senses' closures
        assert len(lex.senses("bank")) == 2
        hits = lex.sense_hits("bank")
        assert hits == {"animal": 1, "liquid": 1, "entity": 2}

    def test_monosemous_weight_is_one(self, lex):
        assert len(lex.senses("dog")) == 1
        assert lex.sense_hits("dog")["animal"] == 1

    def test_class_weights_sum_over_leaf_senses(self, lex):
        hits = lex.sense_hits("bank")
        assert hits["animal"] + hits["liquid"] == len(lex.senses("bank"))
