"""Candidate class generation and selection of disjoint restrictions.

For every (verb, position) with enough observations, the candidate space
is the union of the hypernym closures of every sense of every noun seen
there, cut down to classes with at least ``threshold`` supporting
occurrences.  Candidates are ``(class_id, n_nouns, support)`` tuples,
each scored into a ``SelectionalRestriction``; then a greedy pass over
the whole space repeatedly extracts the best-scoring class and drops
everything related to it by hyperonymy, so the surviving classes are
mutually disjoint.

The nouns of a group are walked once, by ``Scorer.group_sums``: the same
walk gives the candidates' support and noun counts and the class sums
their scores read, and the whole group is scored in one call.  Groups
are learned one after another and the scorer keeps only the current
group's sums, so memory grows with the largest group, not with the
number of groups.

The rank order comes from two stable sorts with C-level ``itemgetter``
keys, by class id and then by (score, support, nouns) descending, so no
Python key function runs per candidate.  The greedy pass is one walk in
that order with set lookups on hypernym closures, taken from the
taxonomy's memo, linear in the candidates times the closure size.
Taking the full candidate set, not a best-first climb from the sense
classes, is immune to the non-monotone shape of the association score.

The restriction record and its file readers and writers live in
``restrictions``, which ``eval`` and ``report`` load without this module
and the scoring code it imports.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable

from .restrictions import EstimatorKind, ScoreKind, SelectionalRestriction
from .stats import Scorer
from .taxonomy import Taxonomy
from .triples import SynRel


class LearnerConfig:
    """Knobs for candidate generation and selection.

    ``threshold`` is the minimum raw occurrence support per candidate
    class and ``min_verb_support`` the minimum triples per (verb,
    position) before learning is attempted at all.  Support is always
    counted in whole occurrences, regardless of the estimator used for
    scoring.  ``keep_nonpositive`` retains candidates whose score is
    zero or negative; dropping them is the stricter reading.  ``scorer``
    and ``estimator`` may also be given by value, as in ``"g2"``.
    """

    __slots__ = ("threshold", "scorer", "estimator", "min_verb_support", "keep_nonpositive")

    def __init__(
        self,
        threshold: int = 3,
        scorer: ScoreKind | str = ScoreKind.ASSOC,
        estimator: EstimatorKind | str = EstimatorKind.RAW,
        min_verb_support: int = 10,
        keep_nonpositive: bool = True,
    ):
        self.scorer = ScoreKind(scorer)
        self.estimator = EstimatorKind(estimator)
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if min_verb_support < 1:
            raise ValueError(f"min_verb_support must be >= 1, got {min_verb_support}")
        self.threshold = threshold
        self.min_verb_support = min_verb_support
        self.keep_nonpositive = keep_nonpositive

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"LearnerConfig({fields})"


# Rank keys of ``select_disjoint``, as fields of SelectionalRestriction.
_CLASS_ID = itemgetter(2)
_SCORE_SUPPORT_NOUNS = itemgetter(3, 5, 4)


def candidate_space(
    model: Scorer, v: str, s: SynRel, cfg: LearnerConfig
) -> list[tuple[str, int, int]]:
    """``(class_id, n_nouns, support)`` for every hypernym (at all levels)
    of the observed nouns' senses whose raw support reaches the
    threshold, sorted by class id."""
    sums = model.group_sums(v, s, cfg.estimator)
    distinct, threshold = sums.distinct, cfg.threshold
    candidates = [
        (cls, distinct[cls], supp) for cls, supp in sums.support.items() if supp >= threshold
    ]
    candidates.sort()
    return candidates


def score_candidates(
    model: Scorer,
    v: str,
    s: SynRel,
    candidates: list[tuple[str, int, int]],
    cfg: LearnerConfig,
) -> list[SelectionalRestriction]:
    """Score each candidate into a restriction, all in one call to the
    scorer.  None can fail: its raw support is >= ``threshold`` >= 1, so
    every class sum it divides by is positive for both estimators."""
    scores = model.scores(cfg.scorer, v, s, [cls for cls, _, _ in candidates], cfg.estimator)
    # Checked fields: skip SelectionalRestriction's Python-level __new__.
    new = tuple.__new__
    return [
        new(SelectionalRestriction, (v, s, cls, score, n_nouns, support))
        for (cls, n_nouns, support), score in zip(candidates, scores)
    ]


def select_disjoint(
    candidates: Iterable[SelectionalRestriction], taxonomy: Taxonomy
) -> list[SelectionalRestriction]:
    """Greedy extraction: take the best-ranked class, discard every
    candidate related to it by hyperonymy, repeat until nothing is left.

    The rank is a total order: score, then support, then distinct nouns,
    all descending, then class id, so selection does not depend on the
    order of ``candidates``.  Two stable sorts with C-level keys give it:
    by class id, then by (score, support, nouns) reversed, which keeps
    the class-id order within a tie.  One pass in rank order then keeps a
    candidate iff it is not in the union of the kept classes' hypernym
    closures (not an ancestor) and its own closure holds no kept class
    (not a descendant)."""
    ranked = sorted(candidates, key=_CLASS_ID)
    ranked.sort(key=_SCORE_SUPPORT_NOUNS, reverse=True)
    # The taxonomy's memo first: most closures are already built.
    memo, closure_of = taxonomy._closures.get, taxonomy.hypernym_closure
    chosen: list[SelectionalRestriction] = []
    chosen_ids: set[str] = set()
    covered: set[str] = set()
    for sr in ranked:
        class_id = sr.class_id
        if class_id in covered:
            continue
        closure = memo(class_id)
        if closure is None:
            closure = closure_of(class_id)
        if not chosen_ids.isdisjoint(closure):
            continue
        chosen.append(sr)
        chosen_ids.add(class_id)
        covered |= closure
    return chosen


def learn_group(
    model: Scorer, v: str, s: SynRel, cfg: LearnerConfig
) -> list[SelectionalRestriction]:
    """Full pipeline for one (verb, position): candidates, scores, selection."""
    scored = score_candidates(model, v, s, candidate_space(model, v, s, cfg), cfg)
    if not cfg.keep_nonpositive:
        scored = [sr for sr in scored if sr.score > 0]
    return select_disjoint(scored, model.taxonomy)


def learn_all(model: Scorer, cfg: LearnerConfig) -> list[SelectionalRestriction]:
    """Learn restrictions for every (verb, position) with at least
    ``min_verb_support`` observations, ordered by (verb, relation,
    extraction order)."""
    out: list[SelectionalRestriction] = []
    for v, s in model.table.verb_positions():
        if model.table.vs_total(v, s) >= cfg.min_verb_support:
            out.extend(learn_group(model, v, s, cfg))
    return out
