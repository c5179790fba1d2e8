"""Randomized invariants over seeded worlds.

Each test draws a world seed from hypothesis, regenerates the same
taxonomy/lexicon/corpus from it, and checks a structural property that
must hold for every world, with the brute-force reference in oracle.py
as the comparison point where one exists.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from conftest import build_world
from helpers import flat_counts
from selrestr.evaluate import (
    PARSER_ERR,
    DiagnosticLabel,
    GoldTriple,
    diagnostic_summary,
    evaluate_gold,
    occurrence_count,
    read_gold,
    read_labels,
)
from selrestr.learner import (
    LearnerConfig,
    candidate_space,
    learn_all,
    score_candidates,
    select_disjoint,
)
from selrestr.restrictions import SelectionalRestriction
from selrestr.stats import (
    CountsTable,
    EstimatorKind,
    ScoreKind,
    Scorer,
    accumulate,
)
from selrestr.taxonomy import load_taxonomy
from selrestr.triples import SynRel, TripleRecord
from worlds import RELS, make_world, paper_world, taxonomy_text

seeds = st.integers(min_value=0, max_value=2**32 - 1)
S0 = SynRel("0")
alpha_words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=14)


def leaf_classes(parents):
    return {c for c in parents if c.startswith("l")}


class TestLemmatizer:
    @given(
        forms=st.lists(st.text(alphabet="abcEIS-7. ", min_size=1, max_size=8), max_size=12),
        pos_order=st.permutations(["noun", "verb"]),
    )
    def test_memoized_equals_unmemoized(self, forms, pos_order):
        from selrestr.extract import LemmaTable, _lemmatize, lemmatize

        table = LemmaTable({("Is", "verb"): "be", ("mice", "noun"): "mouse", ("a.b", "noun"): "ab"})
        for form in forms + ["Is", "mice", "a.b", "flies"] + forms:
            for pos in pos_order:
                assert lemmatize(form, pos, table) == _lemmatize(form, pos, table)

    def test_bad_pos_is_rejected_every_time(self):
        from selrestr.extract import LemmaTable, lemmatize

        table = LemmaTable()
        for _ in range(2):
            with pytest.raises(ValueError, match="bad coarse POS 'det'"):
                lemmatize("dog", "det", table)

    @given(word=alpha_words, pos=st.sampled_from(["noun", "verb"]))
    def test_idempotent_on_alpha(self, word, pos):
        from selrestr.extract import LemmaTable, lemmatize

        first = lemmatize(word, pos, LemmaTable())
        assert not first.failed
        again = lemmatize(first.lemma, pos, LemmaTable())
        assert again.lemma == first.lemma

    @given(word=alpha_words, pos=st.sampled_from(["noun", "verb"]))
    def test_non_alpha_forms_fail_folded(self, word, pos):
        from selrestr.extract import LemmaTable, lemmatize

        result = lemmatize(word.upper() + "7", pos, LemmaTable())
        assert result.failed
        assert result.lemma == word + "7"


relation_codes = st.one_of(
    st.sampled_from(["0", "1", "with", "on", "to", "With", "", "o n", "in\t", "\u3000"]),
    st.text(alphabet="01aZé \t\x1c\u3000", max_size=4),
)


def _valid_code(code: str) -> bool:
    return code in ("0", "1") or (
        code != "" and code == code.lower() and not any(ch.isspace() for ch in code)
    )


class TestSynRelProperties:
    @given(code=relation_codes)
    def test_validation_and_text(self, code):
        if not _valid_code(code):
            with pytest.raises(ValueError) as err:
                SynRel(code)
            assert str(err.value) == f"bad relation code {code!r}"
            return
        rel = SynRel(code)
        assert rel.code == code and type(rel.code) is str
        assert str(rel) == code and f"{rel}" == code
        assert repr(rel) == f"SynRel(code={code!r})"

    @given(codes=st.lists(relation_codes.filter(_valid_code), min_size=1, max_size=6))
    def test_equality_ordering_and_hash_follow_the_code(self, codes):
        rels = [SynRel(c) for c in codes]
        for a, ra in zip(codes, rels):
            for b, rb in zip(codes, rels):
                assert (ra == rb) == (a == b)
                assert (ra < rb) == (a < b)
                if ra == rb:
                    assert hash(ra) == hash(rb)
        assert [r.code for r in sorted(rels)] == sorted(codes)
        assert len(set(rels)) == len(set(codes))


class TestTaxonomyProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_closure_contains_self_and_parents(self, seed):
        parents, _, _ = make_world(random.Random(seed))
        tax, _ = load_taxonomy(taxonomy_text(parents), "")
        for cls in parents:
            closure = tax.hypernym_closure(cls)
            assert cls in closure
            for p in parents[cls]:
                assert tax.hypernym_closure(p) <= closure
            assert closure == oracle.closure(parents, cls)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_related_is_symmetric_and_reflexive(self, seed):
        rng = random.Random(seed)
        parents, _, _ = make_world(rng)
        tax, _ = load_taxonomy(taxonomy_text(parents), "")
        ids = sorted(parents)
        for _ in range(30):
            a, b = rng.choice(ids), rng.choice(ids)
            assert tax.related(a, a)
            assert tax.related(a, b) == tax.related(b, a)
            assert tax.related(a, b) == oracle.related(parents, a, b)


def _leaf_mass(scorer, s, leaves, est) -> int:
    """The estimator's sums of the leaf classes over every group at ``s``."""
    return sum(
        scorer.group_sums(v, s, est).joint.get(c, 0)
        for v, at in scorer.table.verb_positions()
        if at == s
        for c in leaves
    )


class TestCountConservation:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_marginals_sum_to_grand_total(self, seed):
        _, _, triples = make_world(random.Random(seed))
        table = accumulate(TripleRecord(v, SynRel(s), n) for v, s, n in triples)
        assert table.grand_total == len(triples)
        verbs = {v for v, _ in table.verb_position_total}
        assert sum(table.total(s) for s in table.position_total) == table.grand_total
        for s in table.position_total:
            assert sum(table.vs_total(v, s) for v in verbs) == table.total(s)
            assert sum(table.nouns_at(s).values()) == table.total(s)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_leaf_senses_partition_weighted_mass(self, seed):
        parents, senses, triples = make_world(random.Random(seed), full_lexicon=True)
        scorer = build_world(parents, senses, triples)
        leaves = leaf_classes(parents)
        for s in scorer.table.position_total:
            mass = Fraction(
                _leaf_mass(scorer, s, leaves, EstimatorKind.SENSE_CORRECTED), scorer.sense_scale
            )
            assert mass == scorer.table.total(s)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_raw_leaf_counts_weigh_each_sense_once(self, seed):
        parents, senses, triples = make_world(random.Random(seed), full_lexicon=True)
        scorer = build_world(parents, senses, triples)
        leaves = leaf_classes(parents)
        for s in scorer.table.position_total:
            raw_mass = _leaf_mass(scorer, s, leaves, EstimatorKind.RAW)
            expected = sum(
                count * len(senses[noun])
                for noun, count in scorer.table.nouns_at(s).items()
            )
            assert raw_mass == expected


class TestCountsTableMarginals:
    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.sampled_from(["v0", "v1", "v2"]),
                st.sampled_from(RELS).map(SynRel),
                st.sampled_from(["n0", "n1", "n2", "n3"]),
                st.integers(min_value=1, max_value=1000),
            ),
            max_size=60,
        ),
        empty=st.one_of(
            st.none(), st.tuples(st.sampled_from(["v0", "v3"]), st.sampled_from(RELS).map(SynRel))
        ),
    )
    def test_marginals_are_sums_of_the_counts(self, entries, empty):
        # Grouped input, a repeated (v, s, n) adding up as the readers add it.
        groups: dict = {}
        at_s: dict = {}
        noun_total: dict = {}
        for v, s, n, c in entries:
            for nouns in (groups.setdefault((v, s), {}), at_s.setdefault(s, {}), noun_total):
                nouns[n] = nouns.get(n, 0) + c
        if empty is not None and empty not in groups:
            with pytest.raises(ValueError, match="^no nouns for verb "):
                CountsTable({**groups, empty: {}})
        table = CountsTable(groups)
        assert flat_counts(table) == {
            (v, s, n): c for (v, s), nouns in groups.items() for n, c in nouns.items()
        }
        assert table.grand_total == sum(c for *_, c in entries)
        assert table.noun_total == noun_total
        assert table.position_total == {s: sum(ns.values()) for s, ns in at_s.items()}
        assert table.verb_position_total == {vs: sum(ns.values()) for vs, ns in groups.items()}
        for code in RELS:
            s = SynRel(code)
            assert table.nouns_at(s) == at_s.get(s, {})
            assert table.total(s) == sum(at_s.get(s, {}).values())
            for v in ("v0", "v1", "v2"):
                assert table.nouns_for(v, s) == groups.get((v, s), {})
                assert table.vs_total(v, s) == sum(groups.get((v, s), {}).values())


def _group_keys_held(scorer) -> set:
    """Every (verb, position) that a (verb, position, estimator) key
    reachable from the scorer's own state names, its table and lexicon
    left out: the groups whose class sums it keeps."""
    stack = [value for name, value in vars(scorer).items()
             if name not in ("table", "lexicon", "taxonomy")]
    seen, keys = set(), set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (tuple, list)):
            if len(obj) == 3 and isinstance(obj[1], SynRel) and isinstance(obj[2], EstimatorKind):
                keys.add(tuple(obj[:2]))
            stack.extend(obj)
    return keys


class TestGroupSums:
    def test_worlds_hold_repeats_lexicon_misses_and_many_senses(self):
        # The worlds below are drawn this way; over a few seeds they hold
        # nouns seen more than once in a group, nouns missing from the
        # lexicon and nouns with up to five senses, and with nested senses
        # a noun with one sense above another.
        repeats = misses = most_senses = nested = 0
        for seed in range(50):
            parents, senses, triples = make_world(
                random.Random(seed), full_lexicon=False, max_senses=5,
                nested_senses=seed % 2 == 1,
            )
            repeats += len(triples) > len(set(triples))
            misses += any(n not in senses for _, _, n in triples)
            most_senses = max(most_senses, *map(len, senses.values()), 0)
            nested += any(
                a != b and a in oracle.closure(parents, b)
                for cs in senses.values() for a in cs for b in cs
            )
        assert repeats and misses and most_senses == 5 and nested

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, nested=st.booleans())
    def test_one_walk_equals_the_reference_loops(self, seed, nested):
        parents, senses, triples = make_world(
            random.Random(seed), full_lexicon=False, max_senses=5, nested_senses=nested
        )
        self.check_walks(parents, senses, triples)

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_one_walk_equals_the_reference_loops_at_high_polysemy(self, seed):
        # Nouns with 1 to 33 senses: the sense scale is lcm(1, ..., 33), a
        # 48-bit number, so the scorer's per-noun units (scale // k) and the
        # sums they build are big numbers, pinned here against the
        # reference loops.
        rng = random.Random(seed)
        parents = {"i0": set()}
        for k in range(1, rng.randint(2, 8)):
            parents[f"i{k}"] = set(rng.sample(sorted(parents), rng.randint(1, min(2, k))))
        internal = sorted(parents)
        for k in range(rng.randint(33, 45)):
            parents[f"l{k}"] = set(rng.sample(internal, rng.randint(1, min(2, len(internal)))))
        leaves = [c for c in parents if c.startswith("l")]
        senses = {f"n{k}": frozenset(rng.sample(leaves, k)) for k in range(1, 34)}
        nouns = [*senses, "unlisted"]
        triples = [
            (rng.choice(["v0", "v1", "v2"]), rng.choice(RELS), n)
            for n in nouns + rng.choices(nouns, k=rng.randint(0, 60))
        ]
        scale = self.check_walks(parents, senses, triples)
        assert scale == math.lcm(*range(1, 34)) and scale.bit_length() == 48

    def check_walks(self, parents, senses, triples) -> int:
        """Compare every walk of the world's scorer with the reference
        loops; returns the scorer's sense scale."""
        scorer = build_world(parents, senses, triples)
        table, lexicon, scale = scorer.table, scorer.lexicon, scorer.sense_scale
        # The per-noun table every walk reads, against the plain world maps.
        for n in senses:
            hits = lexicon.sense_hits(n)
            assert hits == oracle.sense_counts(parents, senses, n)
            assert set(hits) == oracle.noun_classes(parents, senses, n)
            for cls in parents:
                assert (cls in hits) == (oracle.weight(parents, senses, n, cls) > 0)
        for v, s in table.verb_positions():
            nouns = table.nouns_for(v, s)
            support, distinct = oracle.support_and_distinct(nouns, lexicon)
            raw = scorer.group_sums(v, s, EstimatorKind.RAW)
            assert raw.support == support
            assert dict(raw.distinct) == distinct
            assert raw.joint is raw.support
            sense = scorer.group_sums(v, s, EstimatorKind.SENSE_CORRECTED)
            assert sense.support == support
            assert dict(sense.distinct) == distinct
            assert sense.joint == oracle.class_sums(nouns, lexicon, scale)
        # The position and whole-table sums every score divides by come
        # from the same walk.
        spaces = [(at, table.nouns_at(at)) for at in table.position_total]
        for at, nouns in spaces + [(None, table.noun_total)]:
            assert scorer._class_sums(at, EstimatorKind.RAW) == oracle.class_sums(nouns, lexicon)
            sense = scorer._class_sums(at, EstimatorKind.SENSE_CORRECTED)
            assert sense == oracle.class_sums(nouns, lexicon, scale)
        return scale

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_scorer_keeps_the_sums_of_one_group(self, seed):
        rng = random.Random(seed)
        parents, senses, triples = make_world(rng, full_lexicon=False, max_senses=5)
        scorer = build_world(parents, senses, triples)
        est = rng.choice(list(EstimatorKind))
        learn_all(scorer, LearnerConfig(threshold=1, estimator=est, min_verb_support=1))
        assert len(_group_keys_held(scorer)) <= 1
        # Interleaved queries over every group and both estimators give
        # what a fresh scorer gives for each group alone.
        groups = scorer.table.verb_positions()
        expected = {
            (v, s, e): dict(Scorer(scorer.table, scorer.lexicon).group_sums(v, s, e).joint)
            for v, s in groups
            for e in EstimatorKind
        }
        queries = [(v, s, c, e) for v, s in groups for c in sorted(parents) for e in EstimatorKind]
        rng.shuffle(queries)
        for v, s, c, e in queries[:300]:
            assert scorer.group_sums(v, s, e).joint.get(c, 0) == expected[v, s, e].get(c, 0)
            assert len(_group_keys_held(scorer)) <= 1


class TestScoreAgreement:
    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_assoc_and_probs_match_oracle(self, seed):
        parents, senses, triples = make_world(
            random.Random(seed), max_classes=25, max_triples=60
        )
        scorer = build_world(parents, senses, triples)
        for v, s in scorer.table.verb_positions():
            joint = scorer.group_sums(v, s, EstimatorKind.RAW).joint
            classes = sorted(joint)
            world = (triples, parents, senses, v, s.code)
            for cls in classes:
                assert joint[cls] == oracle.class_count(*world, cls)
            refs = [oracle.assoc(*world, cls) for cls in classes]
            assert None not in refs
            assert scorer.scores(ScoreKind.ASSOC, v, s, classes) == refs

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, nested=st.booleans())
    def test_scores_equal_fraction_reference(self, seed, nested):
        # Bit-exact: the scaled-integer scores against exact rationals, for
        # every scorer and estimator.  Up to 5 senses per noun makes the
        # sense scale (the LCM of the sense counts) reach 12, 20, 30 or 60;
        # nested senses put one sense of a noun above another, so that
        # sense class itself counts j > 1 of them.
        parents, senses, triples = make_world(
            random.Random(seed), full_lexicon=False, max_classes=25,
            max_triples=60, max_senses=5, nested_senses=nested,
        )
        scorer = build_world(parents, senses, triples)
        for est in EstimatorKind:
            sense = est is EstimatorKind.SENSE_CORRECTED
            scale = scorer.sense_scale if sense else 1
            for v, s in scorer.table.verb_positions():
                joint = scorer.group_sums(v, s, est).joint
                classes = sorted(joint)
                assoc = scorer.scores(ScoreKind.ASSOC, v, s, classes, est)
                pair_mi = scorer.scores(ScoreKind.ASSOC_PAIR_MI, v, s, classes, est)
                g2 = scorer.scores(ScoreKind.LOG_LIKELIHOOD_RATIO, v, s, classes, est)
                for k, cls in enumerate(classes):
                    world = (triples, parents, senses, v, s.code, cls, sense)
                    assert Fraction(joint[cls], scale) == oracle.class_count(*world)
                    assert assoc[k] == oracle.assoc(*world)
                    assert pair_mi[k] == oracle.pair_mi(*world)
                    cells = oracle.g2_table(*world)
                    assert g2[k] == oracle.g2(*cells)

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_single_verb_positions_score_zero(self, seed):
        parents, senses, triples = make_world(random.Random(seed), full_lexicon=True)
        merged = [("v0", s, n) for _, s, n in triples]
        scorer = build_world(parents, senses, merged)
        for _, s in scorer.table.verb_positions():
            classes = list(scorer.group_sums("v0", s, EstimatorKind.RAW).joint)
            # P(c | v0, s) == P(c | s) when v0 is the only verb
            assert scorer.scores(ScoreKind.ASSOC, "v0", s, classes) == [0.0] * len(classes)


class TestSelectionProperties:
    def _candidates(self, rng, parents):
        ids = rng.sample(sorted(parents), rng.randint(1, len(parents)))
        return [
            SelectionalRestriction(
                "v",
                S0,
                cid,
                round(rng.random(), 1),  # coarse scores force ties
                rng.randint(1, 5),
                rng.randint(1, 9),
            )
            for cid in ids
        ]

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_chosen_classes_pairwise_disjoint(self, seed):
        rng = random.Random(seed)
        parents, _, _ = make_world(rng)
        tax, _ = load_taxonomy(taxonomy_text(parents), "")
        cands = self._candidates(rng, parents)
        chosen = select_disjoint(cands, tax)
        for i, a in enumerate(chosen):
            for b in chosen[i + 1 :]:
                assert not tax.related(a.class_id, b.class_id)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_every_candidate_accounted_for(self, seed):
        rng = random.Random(seed)
        parents, _, _ = make_world(rng)
        tax, _ = load_taxonomy(taxonomy_text(parents), "")
        cands = self._candidates(rng, parents)
        chosen_ids = {c.class_id for c in select_disjoint(cands, tax)}
        for cand in cands:
            assert cand.class_id in chosen_ids or any(
                tax.related(cand.class_id, cid) for cid in chosen_ids
            )

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_permutation_and_scaling_invariance(self, seed):
        rng = random.Random(seed)
        parents, _, _ = make_world(rng)
        tax, _ = load_taxonomy(taxonomy_text(parents), "")
        cands = self._candidates(rng, parents)
        baseline = select_disjoint(cands, tax)
        shuffled = cands[:]
        rng.shuffle(shuffled)
        assert select_disjoint(shuffled, tax) == baseline
        factor = rng.uniform(0.5, 8.0)
        scaled = [c._replace(score=c.score * factor) for c in cands]
        assert [c.class_id for c in select_disjoint(scaled, tax)] == [
            c.class_id for c in baseline
        ]

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, nested=st.booleans())
    def test_agrees_with_oracle_greedy(self, seed, nested):
        rng = random.Random(seed)
        parents, _, _ = make_world(rng, nested_senses=nested)
        tax, _ = load_taxonomy(taxonomy_text(parents), "")
        cands = self._candidates(rng, parents)
        scored = {c.class_id: c.score for c in cands}
        tiebreak = {c.class_id: (c.support, c.n_nouns) for c in cands}
        expected = oracle.greedy_disjoint(parents, scored, tiebreak)
        assert [c.class_id for c in select_disjoint(cands, tax)] == expected

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds)
    def test_agrees_with_oracle_on_dense_dags_and_ties(self, seed):
        # Up to three parents per class, and scores, supports and noun
        # counts from tiny ranges, so most of the order falls to ties.
        rng = random.Random(seed)
        ids = [f"c{k}" for k in range(rng.randint(1, 30))]
        parents = {
            c: set(rng.sample(ids[:k], rng.randint(0, min(3, k)))) for k, c in enumerate(ids)
        }
        tax, _ = load_taxonomy(taxonomy_text(parents), "")
        cands = [
            SelectionalRestriction(
                "v",
                S0,
                cid,
                rng.choice((-0.5, 0.0, 0.5, 1.0)),
                rng.randint(1, 2),
                rng.randint(1, 3),
            )
            for cid in rng.sample(ids, rng.randint(1, len(ids)))
        ]
        scored = {c.class_id: c.score for c in cands}
        tiebreak = {c.class_id: (c.support, c.n_nouns) for c in cands}
        expected = oracle.greedy_disjoint(parents, scored, tiebreak)
        assert [c.class_id for c in select_disjoint(cands, tax)] == expected


class TestLearnerProperties:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds)
    def test_every_candidate_scores(self, seed):
        # The learner has no failure path: every class that candidate_space
        # yields for a group learn_all visits scores, for every scorer and
        # estimator, on partial lexicons and nouns with several senses.
        rng = random.Random(seed)
        parents, senses, triples = make_world(
            rng, full_lexicon=rng.random() < 0.5, max_senses=rng.randint(1, 5)
        )
        scorer = build_world(parents, senses, triples)
        threshold, min_verb_support = rng.randint(1, 4), rng.randint(1, 8)
        for kind in ScoreKind:
            for est in EstimatorKind:
                cfg = LearnerConfig(threshold, kind, est, min_verb_support)
                for v, s in scorer.table.verb_positions():
                    if scorer.table.vs_total(v, s) < min_verb_support:
                        continue
                    cands = candidate_space(scorer, v, s, cfg)
                    scored = score_candidates(scorer, v, s, cands, cfg)
                    assert [(sr.class_id, sr.n_nouns, sr.support) for sr in scored] == cands
                    assert all(math.isfinite(sr.score) for sr in scored)

    @settings(max_examples=8, deadline=None)
    @given(seed=seeds)
    def test_paper_world_at_toy_size_learns_what_the_oracle_selects(self, seed):
        # The paper-scale generator's shape at toy size: a DAG with second
        # parents, up to 33 senses a noun at any level, Zipf verbs.  Every
        # scorer and estimator scores each candidate as the oracle does
        # and selects what the oracle's greedy extraction selects.
        rng = random.Random(seed)
        parents, senses, triples = paper_world(
            rng, n_classes=30, n_nouns=10, n_triples=50, n_verbs=3,
            max_depth=6, mean_depth=3, second_parents=0.2,
        )
        scorer = build_world(parents, senses, triples)
        threshold = rng.randint(1, 3)
        for kind in ScoreKind:
            for est in EstimatorKind:
                sense = est is EstimatorKind.SENSE_CORRECTED
                cfg = LearnerConfig(threshold, kind, est, min_verb_support=1)
                learned = learn_all(scorer, cfg)
                for v, s in scorer.table.verb_positions():
                    nouns = scorer.table.nouns_for(v, s)
                    support, distinct = oracle.support_and_distinct(nouns, scorer.lexicon)
                    scored = {}
                    for cls in (c for c, k in support.items() if k >= threshold):
                        world = (triples, parents, senses, v, s.code, cls, sense)
                        if kind is ScoreKind.ASSOC:
                            scored[cls] = oracle.assoc(*world)
                        elif kind is ScoreKind.ASSOC_PAIR_MI:
                            scored[cls] = oracle.pair_mi(*world)
                        else:
                            scored[cls] = oracle.g2(*oracle.g2_table(*world))
                    tiebreak = {c: (support[c], distinct[c]) for c in scored}
                    expected = oracle.greedy_disjoint(parents, scored, tiebreak)
                    got = [sr for sr in learned if (sr.verb, sr.rel) == (v, s)]
                    assert [sr.class_id for sr in got] == expected
                    assert [sr.score for sr in got] == [scored[c] for c in expected]


class TestEvaluationProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_report_ratios_match_oracle(self, seed):
        rng = random.Random(seed)
        parents, senses, triples = make_world(rng, full_lexicon=False, max_triples=80)
        scorer = build_world(parents, senses, triples)
        cfg = LearnerConfig(threshold=1, min_verb_support=1)
        srs = learn_all(scorer, cfg)
        # gold: the world's own triples, some with verbs or positions that
        # have no restriction, a few excluded as extraction errors
        plain = triples + [("v9", rel, n) for _, rel, n in triples[:5]]
        gold = [
            GoldTriple(
                TripleRecord(v, SynRel(s), n),
                error=PARSER_ERR if rng.random() < 0.1 else None,
            )
            for v, s, n in plain
        ]
        report = evaluate_gold(gold, srs, scorer.lexicon)
        kept = [(g.record.verb, g.record.rel.code, g.record.noun) for g in gold if g.extraction_ok]
        plain_srs = {(sr.verb, sr.rel.code, sr.class_id) for sr in srs}
        expected = oracle.eval_ratios(kept, parents, senses, plain_srs)
        assert (report.precision, report.recall) == expected
        assert report.evaluated == len(kept)
        # learn_all gives each position's restrictions in one run; any
        # order of them gives the same report.
        shuffled = srs[:]
        rng.shuffle(shuffled)
        assert evaluate_gold(gold, shuffled, scorer.lexicon) == report

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_diagnostics_equal_one_count_per_label_over_all_records(self, seed):
        # evaluate_gold counts a label without a count over its own
        # position's records; the reference scans every record per label.
        rng = random.Random(seed)
        parents, senses, triples = make_world(rng, full_lexicon=False, max_triples=80)
        scorer = build_world(parents, senses, triples)
        lexicon = scorer.lexicon
        status = ("ok", "ok", "ok", "parser_err", "lemma_err")
        gold_text = "".join(
            f"{v}\t{s}\t{n}\t-\t{rng.choice(status)}\n" if rng.random() < 0.5
            else f"{v}\t{s}\t{n}\n"
            for v, s, n in triples + [("v9", "0", n) for _, _, n in triples[:3]]
        )
        verbs = sorted({v for v, _, _ in triples}) + ["v9"]
        keys = {
            (rng.choice(verbs), rng.choice(RELS), rng.choice(sorted(parents)))
            for _ in range(rng.randint(0, 20))
        }
        labels_text = "".join(
            f"{v}\t{s}\t{c}\t{rng.choice(list(DiagnosticLabel)).value}"
            + (f"\t{rng.randint(0, 9)}\n" if rng.random() < 0.3 else "\n")
            for v, s, c in sorted(keys)
        )
        gold, labels = read_gold(gold_text), read_labels(labels_text)
        records = [g.record for g in gold if g.extraction_ok]
        expected = diagnostic_summary(
            (
                (v, s, c),
                label,
                occurrence_count(records, v, s, c, lexicon) if count is None else count,
            )
            for v, s, c, label, count in labels
        )
        assert evaluate_gold(gold, [], lexicon, labels).diagnostics == expected
