"""Candidate class generation and selection of disjoint restrictions.

For every (verb, position) with enough observations, the candidate space
is the union of the hypernym closures of every sense of every noun seen
there, cut down to classes with at least ``threshold`` supporting
occurrences.  Candidates are scored, then a greedy pass over the whole
space repeatedly extracts the best-scoring class and drops everything
related to it by hyperonymy, so the surviving classes are mutually
disjoint.

The greedy pass is a single walk over the candidates sorted once by
rank, testing each against the kept classes with set lookups on
hypernym closures, so it is linear in the candidates times the closure
size.  Considering the full candidate set (rather than best-first
expansion from the sense classes upward) is immune to the non-monotone
shape of the association score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .extract import ExtractionError, SynRel
from .stats import (
    EstimatorKind,
    ScoreKind,
    Scorer,
    UnsupportedClassError,
    ZeroDenominatorError,
)
from .taxonomy import Taxonomy
from .tsv import rows


@dataclass
class LearnerConfig:
    """Knobs for candidate generation and selection.

    ``threshold`` is the minimum raw occurrence support per candidate
    class and ``min_verb_support`` the minimum triples per (verb,
    position) before learning is attempted at all.  Support is always
    counted in whole occurrences, regardless of the estimator used for
    scoring.  ``keep_nonpositive`` retains candidates whose score is
    zero or negative; dropping them is the stricter reading.
    """

    threshold: int = 3
    scorer: ScoreKind = ScoreKind.ASSOC
    estimator: EstimatorKind = EstimatorKind.RAW
    min_verb_support: int = 10
    keep_nonpositive: bool = True

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {self.threshold}")
        if self.min_verb_support < 1:
            raise ValueError(f"min_verb_support must be >= 1, got {self.min_verb_support}")


@dataclass(frozen=True)
class ScoredCandidate:
    class_id: str
    score: float | None
    n_nouns: int
    support: int

    def with_score(self, score: float) -> "ScoredCandidate":
        return ScoredCandidate(self.class_id, score, self.n_nouns, self.support)


@dataclass(frozen=True)
class SelectionalRestriction:
    """An acquired (verb, relation, class) constraint with its evidence."""

    verb: str
    rel: SynRel
    class_id: str
    score: float
    n_nouns: int
    support: int


@dataclass(frozen=True)
class ScoringFailure:
    verb: str
    rel: SynRel
    class_id: str
    message: str


def candidate_space(model: Scorer, v: str, s: SynRel, cfg: LearnerConfig) -> list[ScoredCandidate]:
    """Unscored candidates for (v, s): every hypernym (at all levels) of the
    observed nouns' senses whose raw support reaches the threshold."""
    nouns = model.table.nouns_for(v, s)
    if sum(nouns.values()) < cfg.min_verb_support:
        raise ValueError(
            f"(v={v!r}, s={s.code!r}) has fewer than {cfg.min_verb_support} observations"
        )
    support: dict[str, int] = {}
    distinct: dict[str, int] = {}
    for n, c in nouns.items():
        if n not in model.lexicon:
            continue
        for cls in model.lexicon.classes_of(n):
            support[cls] = support.get(cls, 0) + c
            distinct[cls] = distinct.get(cls, 0) + 1
    return [
        ScoredCandidate(cls, None, distinct[cls], supp)
        for cls, supp in sorted(support.items())
        if supp >= cfg.threshold
    ]


def score_candidates(
    model: Scorer,
    v: str,
    s: SynRel,
    candidates: Iterable[ScoredCandidate],
    cfg: LearnerConfig,
    failures: list[ScoringFailure] | None = None,
) -> list[ScoredCandidate]:
    scored = []
    for cand in candidates:
        try:
            value = model.score(cfg.scorer, v, s, cand.class_id, cfg.estimator)
        except (UnsupportedClassError, ZeroDenominatorError) as exc:
            if failures is not None:
                failures.append(ScoringFailure(v, s, cand.class_id, str(exc)))
            continue
        scored.append(cand.with_score(value))
    return scored


def _rank_key(cand: ScoredCandidate):
    # Total order: score, then support, then distinct nouns (all descending),
    # then class id; makes selection independent of input permutation.
    return (-cand.score, -cand.support, -cand.n_nouns, cand.class_id)


def select_disjoint(
    candidates: Iterable[ScoredCandidate], taxonomy: Taxonomy
) -> list[ScoredCandidate]:
    """Greedy extraction over the full candidate set: take the best-ranked
    class, discard every candidate related to it by hyperonymy in either
    direction, repeat until nothing is left.

    One pass in rank order gives the same result: a candidate is kept iff
    it is related to no class kept before it, that is, it is not in the
    union of the kept classes' hypernym closures (not an ancestor of a kept
    class) and its own closure holds no kept class (not a descendant)."""
    pool = list(candidates)
    for cand in pool:
        if cand.score is None:
            raise ValueError(f"candidate {cand.class_id!r} is unscored")
    pool.sort(key=_rank_key)
    chosen: list[ScoredCandidate] = []
    chosen_ids: set[str] = set()
    covered: set[str] = set()
    for cand in pool:
        if cand.class_id in covered:
            continue
        closure = taxonomy.hypernym_closure(cand.class_id)
        if not chosen_ids.isdisjoint(closure):
            continue
        chosen.append(cand)
        chosen_ids.add(cand.class_id)
        covered |= closure
    return chosen


def learn_group(
    model: Scorer,
    v: str,
    s: SynRel,
    cfg: LearnerConfig,
    failures: list[ScoringFailure] | None = None,
) -> list[SelectionalRestriction]:
    """Full pipeline for one (verb, position): candidates, scores, selection."""
    cands = candidate_space(model, v, s, cfg)
    scored = score_candidates(model, v, s, cands, cfg, failures)
    if not cfg.keep_nonpositive:
        scored = [c for c in scored if c.score > 0]
    return [
        SelectionalRestriction(v, s, c.class_id, c.score, c.n_nouns, c.support)
        for c in select_disjoint(scored, model.taxonomy)
    ]


def learn_all(
    model: Scorer,
    cfg: LearnerConfig,
    failures: list[ScoringFailure] | None = None,
) -> list[SelectionalRestriction]:
    """Learn restrictions for every (verb, position) with enough support.

    Output is ordered by (verb, relation, extraction order); per-candidate
    scoring failures go to the optional ``failures`` sink instead of
    aborting the run.
    """
    out: list[SelectionalRestriction] = []
    for v, s in model.table.verb_positions():
        if model.table.vs_total(v, s) >= cfg.min_verb_support:
            out.extend(learn_group(model, v, s, cfg, failures))
    return out


# -- restriction files ---------------------------------------------------


def _clean_score(score: float) -> float:
    return 0.0 if score == 0.0 else score


def format_restriction(sr: SelectionalRestriction) -> str:
    return (
        f"{sr.verb}\t{sr.rel.code}\t{sr.class_id}"
        f"\t{_clean_score(sr.score):.6f}\t{sr.n_nouns}\t{sr.support}"
    )


def write_restrictions(
    restrictions: Iterable[SelectionalRestriction],
    f,
    header: Mapping[str, str] | None = None,
) -> None:
    if header:
        for key, value in header.items():
            f.write(f"# {key}={value}\n")
    for sr in restrictions:
        f.write(format_restriction(sr) + "\n")


def read_restrictions(text: str) -> list[SelectionalRestriction]:
    out: list[SelectionalRestriction] = []
    for lineno, fields in rows(text, "restrictions", (6,), ExtractionError):
        verb, rel_code, class_id, score_text, n_nouns_text, support_text = fields
        try:
            sr = SelectionalRestriction(
                verb,
                SynRel(rel_code),
                class_id,
                float(score_text),
                int(n_nouns_text),
                int(support_text),
            )
        except ValueError as exc:
            raise ExtractionError(f"restrictions line {lineno}: {exc}") from None
        out.append(sr)
    return out
