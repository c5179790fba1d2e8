"""Co-occurrence counts and class association scoring.

Counts are held once, grouped by (verb, position): each group maps the
nouns seen there to their occurrence counts, and ``accumulate`` and
``read_counts`` add each record straight into its group.  The marginals
per position, per noun and over the table are summed from the groups.
Class-level quantities sum over the nouns whose sense classes fall
under the class, either whole occurrences (raw) or occurrences weighted
by the fraction of the noun's senses under the class (sense-corrected),
from each noun's ``sense_hits`` table, which the scorer indexes once.
Raw sums count those tables in C; sense-corrected sums read the same
tables, each scaled by one whole unit per noun.

Three scoring functions (``ScoreKind``) rank candidate classes for a
(verb, position).  Each reads four numbers per class: its sum ``k`` with
(v, s), its sum ``K`` over a space, the group total ``vs`` and the space
total ``n``.  The space is the position s for assoc and g2 and the whole
triple table for pairmi.

  assoc   P(c|v,s) * log2 [ P(v,c|s) / (P(v|s) P(c|s)) ]
  pairmi  P(c|v,s) * log2 [ P(v,s,c) / (P(v,s) P(c)) ]
          both k / vs * log2 (k n / (vs K)) over their space
  g2      signed Dunning log-likelihood ratio of the 2x2 table
          (this verb vs. the rest) x (in class vs. out) at the
          position, natural log, positive when the verb and the
          class co-occur more than expected: ``signed_g2(k, K, vs, n)``

Class sums are kept as integers: raw sums count whole occurrences, and
sense-corrected sums are scaled by the least common multiple of the
sense counts of the observed nouns, which makes every sense fraction
whole.  The scale cancels out of every ratio, and each float is taken
as a single correctly rounded int/int division, so every score, G2
included, equals bit for bit the one computed from exact rationals:
equal quantities compare equal and independence gives a score of
exactly 0.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

from .restrictions import EstimatorKind, ScoreKind
from .taxonomy import SenseLexicon
from .triples import VERB_OR_NOUN, ExtractionError, SynRel, TripleRecord
from .tsv import Spec, count, read


class ZeroDenominatorError(ValueError):
    """A conditioning event (position or verb) has no observations."""


class UnsupportedClassError(ValueError):
    """The class has no supporting occurrence for the given verb and position."""


class CountsTable:
    """Immutable aggregation of kept triples with all position marginals.

    ``groups`` maps each (verb, position) to the occurrence counts of the
    nouns seen there: no group is empty and every count is >= 1.  The
    table keeps those noun dicts as they are given, with no flat
    (v, s, n) copy, so the caller hands them over and does not change
    them; every marginal is summed from them."""

    def __init__(self, groups: Mapping[tuple[str, SynRel], Mapping[str, int]]):
        self._by_vs: dict[tuple[str, SynRel], Mapping[str, int]] = dict(groups)
        for (v, s), group in self._by_vs.items():
            if not group:
                raise ValueError(f"no nouns for verb {v!r} at position {s.code!r}")
            if min(group.values()) < 1:
                n, c = next((n, c) for n, c in group.items() if c < 1)
                raise ValueError(f"count for {(v, s, n)} must be >= 1, got {c}")
        self.verb_position_total: dict[tuple[str, SynRel], int] = {
            vs: sum(group.values()) for vs, group in self._by_vs.items()
        }
        self._by_s: dict[SynRel, dict[str, int]] = {}
        for (_, s), group in self._by_vs.items():
            at_s = self._by_s.setdefault(s, {})
            for n, c in group.items():
                at_s[n] = at_s.get(n, 0) + c
        self.position_total: dict[SynRel, int] = {
            s: sum(at_s.values()) for s, at_s in self._by_s.items()
        }
        self.noun_total: dict[str, int] = {}
        for at_s in self._by_s.values():
            for n, c in at_s.items():
                self.noun_total[n] = self.noun_total.get(n, 0) + c
        self.grand_total: int = sum(self.position_total.values())

    def total(self, s: SynRel) -> int:
        return self.position_total.get(s, 0)

    def vs_total(self, v: str, s: SynRel) -> int:
        return self.verb_position_total.get((v, s), 0)

    def nouns_for(self, v: str, s: SynRel) -> Mapping[str, int]:
        """Nouns observed with (v, s) and their occurrence counts."""
        return self._by_vs.get((v, s), {})

    def nouns_at(self, s: SynRel) -> Mapping[str, int]:
        return self._by_s.get(s, {})

    def verb_positions(self) -> list[tuple[str, SynRel]]:
        return sorted(self.verb_position_total, key=lambda vs: (vs[0], vs[1].code))


def accumulate(triples: Iterable[TripleRecord]) -> CountsTable:
    """Aggregate kept triples; passing a discarded record is an error."""
    groups: dict[tuple[str, SynRel], dict[str, int]] = {}
    for t in triples:
        v, s, n, reason = t
        if reason is not None:
            raise ValueError(f"cannot accumulate discarded triple {t}")
        group = groups.get((v, s))
        if group is None:
            group = groups[v, s] = {}
        group[n] = group.get(n, 0) + 1
    return CountsTable(groups)


COUNTS = Spec(
    "counts",
    ExtractionError,
    (VERB_OR_NOUN, SynRel, VERB_OR_NOUN, count("count", 1, "count must be >= 1")),
    (4,),
)


def read_counts(text: str) -> CountsTable:
    """Parse a pre-aggregated ``verb<TAB>rel<TAB>noun<TAB>count`` file;
    the counts of a repeated key add up."""
    return read(text, COUNTS, _grouped)


def _grouped(records: list[tuple[str, SynRel, str, int]], lines) -> CountsTable:
    groups: dict[tuple[str, SynRel], dict[str, int]] = {}
    for v, s, n, c in records:
        group = groups.get((v, s))
        if group is None:
            group = groups[v, s] = {}
        group[n] = group.get(n, 0) + c
    return CountsTable(groups)


def signed_g2(k11: int, c1: int, r1: int, n: int, scale: int = 1) -> float:
    """Signed G2 of the 2x2 table with top-left cell ``k11``, first column
    total ``c1``, first row total ``r1`` and grand total ``n``.

    G2 = 2 * sum k_ij ln(k_ij / E_ij) with 0 ln 0 = 0, negated when the
    top-left cell falls below its expectation; a zero row or column total
    gives 0 by convention.  The counts may be given multiplied by a common
    integer ``scale``: each cell enters as ``k / scale`` times the log of
    ``k / E`` = ``k * n / (r * c)``, two correctly rounded int/int
    quotients, so the result is the float of the exact rationals of the
    unscaled table."""
    r2, c2 = n - r1, n - c1
    if not (r1 and r2 and c1 and c2):
        return 0.0
    k12, k21 = r1 - k11, c1 - k11
    k22 = r2 - k21
    # k11 * n / (r1 * c1) is the top-left cell's ratio to its expectation;
    # the sign test below compares the same two products.
    observed, expected = k11 * n, r1 * c1
    log = math.log
    # The four cells in row order: the order of the float additions is
    # part of the bit-exact result.
    g = 0.0
    if k11 > 0:
        g += (k11 / scale) * log(observed / expected)
    if k12 > 0:
        g += (k12 / scale) * log(k12 * n / (r1 * c2))
    if k21 > 0:
        g += (k21 / scale) * log(k21 * n / (r2 * c1))
    if k22 > 0:
        g += (k22 / scale) * log(k22 * n / (r2 * c2))
    g *= 2.0
    # The sign test compares k11 with its expectation r1 * c1 / n; a common
    # scale multiplies both sides by scale**2 and leaves it unchanged.
    if observed > expected:
        return g
    if observed < expected:
        return -g
    return 0.0


class GroupSums(NamedTuple):
    """Integer class sums over one walk of a set of noun counts."""

    support: dict[str, int]  # raw occurrences under each class
    distinct: Mapping[str, int]  # distinct nouns under each class
    joint: dict[str, int]  # the estimator's scaled sums; ``support`` for raw


class Scorer:
    """Binds a counts table to a taxonomy and lexicon and scores classes.

    Class sums are integers.  Raw sums count occurrences.  Sense-corrected
    sums count an occurrence of a noun with k senses, j of them under the
    class, as ``sense_scale * j / k``; ``sense_scale`` is the least common
    multiple of the sense counts of the table's nouns, so every such weight
    is whole, and a sense-corrected sum ``k`` stands for the rational
    ``k / sense_scale``.  Scores divide the scale back out in correctly
    rounded int/int divisions, so every score, of each scorer and
    estimator, equals bit for bit the one computed from exact rational
    counts; the exact reference is ``tests/oracle.py``.

    Each of the table's nouns is indexed once to its ``sense_hits`` table,
    the lexicon's own dict, or to an empty one when the lexicon lacks it.
    One walk, ``_walk``, sums a group's noun counts (``group_sums``) into
    raw support, distinct-noun counts and the estimator's sums; they feed
    candidate generation and scoring.  Its distinct-noun counts are one
    ``Counter`` over the chained tables of the group's nouns, with no
    Python step per noun.  A sense sum reads the same tables: the first
    sense-corrected walk keeps one unit per noun, ``sense_scale // k``,
    and a noun seen c times adds ``c * unit * j`` to each class of its
    table, so the scorer keeps no table per (noun, class) pair.  Only
    the last group walked is kept, so memory is bounded by one group
    however many groups are visited.  The sums of a whole position or of
    the whole table, which every group's scores divide by, are walked
    once per estimator and keep only the estimator's sums.  ``scores`` is
    the one way to score: it checks the totals, reads the group's and the
    space's sums once, and applies one formula per class.
    """

    def __init__(self, table: CountsTable, lexicon: SenseLexicon):
        self.table = table
        self.lexicon = lexicon
        self.taxonomy = lexicon.taxonomy
        # Every noun of the table -> the lexicon's own sense_hits dict; a
        # noun outside the lexicon supports no class, so it maps to an
        # empty table and a walk needs no test for it.
        sense_hits, no_hits = lexicon.sense_hits, {}
        self._index: dict[str, Mapping[str, int]] = {
            n: sense_hits(n) if n in lexicon else no_hits for n in table.noun_total
        }
        senses = lexicon.senses
        self.sense_scale: int = math.lcm(
            *{len(senses(n)) for n in table.noun_total if n in lexicon}
        )
        self._units: dict[str, int] | None = None
        self._group: tuple[tuple[str, SynRel, EstimatorKind], GroupSums] | None = None
        self._class_sums_at: dict[tuple[SynRel | None, EstimatorKind], dict[str, int]] = {}

    def _walk(self, noun_counts: Mapping[str, int], est: EstimatorKind) -> GroupSums:
        """Raw support, distinct nouns and the estimator's sums over the
        given noun counts, all of them the table's."""
        index = self._index
        distinct = Counter(chain.from_iterable(map(index.__getitem__, noun_counts)))
        # One occurrence per noun so far; a noun seen c times adds c - 1.
        support = dict(distinct)
        for n, c in noun_counts.items():
            if c > 1:
                extra = c - 1
                for cls in index[n]:
                    support[cls] += extra
        joint = support if est is EstimatorKind.RAW else self._scaled(noun_counts, distinct)
        return GroupSums(support, distinct, joint)

    def _scaled(self, noun_counts: Mapping[str, int], classes: Iterable[str]) -> dict[str, int]:
        """The sense-corrected sums of the table's ``noun_counts`` over
        ``classes``, every class in their ``sense_hits``: a noun seen c
        times with k senses, j of them under a class, adds
        c * (scale // k) * j."""
        index, units = self._index, self._units
        if units is None:
            # One unit per noun, built on the first sense walk so raw runs
            # do not pay for it; a noun outside the lexicon adds nothing.
            scale, senses = self.sense_scale, self.lexicon.senses
            units = self._units = {
                n: scale // len(senses(n)) if hits else 0 for n, hits in index.items()
            }
        joint = dict.fromkeys(classes, 0)
        for n, c in noun_counts.items():
            unit = c * units[n]
            for cls, j in index[n].items():
                joint[cls] += unit * j
        return joint

    def group_sums(self, v: str, s: SynRel, est: EstimatorKind) -> GroupSums:
        """The class sums of the nouns seen with (v, s); a new group
        replaces the one kept."""
        key = (v, s, est)
        if self._group is None or self._group[0] != key:
            self._group = (key, self._walk(self.table.nouns_for(v, s), est))
        return self._group[1]

    def _class_sums(self, at: SynRel | None, est: EstimatorKind) -> dict[str, int]:
        """The estimator's sums over position ``at``, or over the whole
        table when ``at`` is None, kept once computed."""
        key = (at, est)
        cached = self._class_sums_at.get(key)
        if cached is None:
            nouns = self.table.noun_total if at is None else self.table.nouns_at(at)
            if est is EstimatorKind.RAW:
                cached = self._walk(nouns, est).support
            else:
                classes = chain.from_iterable(map(self._index.__getitem__, nouns))
                cached = self._scaled(nouns, classes)
            self._class_sums_at[key] = cached
        return cached

    def scores(
        self,
        kind: ScoreKind,
        v: str,
        s: SynRel,
        classes: Sequence[str],
        est: EstimatorKind = EstimatorKind.RAW,
    ) -> list[float]:
        """The scores of ``classes`` for (v, s), in order.  Under assoc and
        pairmi (v, s) must have observations and every class must have
        support with it."""
        table = self.table
        at = None if kind is ScoreKind.ASSOC_PAIR_MI else s
        n = table.grand_total if at is None else table.total(at)
        vs = table.vs_total(v, s)
        if n == 0:
            raise ZeroDenominatorError(
                "empty counts table" if at is None else f"no observations at position {s.code!r}"
            )
        if vs == 0 and kind is not ScoreKind.LOG_LIKELIHOOD_RATIO:
            raise ZeroDenominatorError(f"no observations of verb {v!r} at position {s.code!r}")
        joint = self.group_sums(v, s, est).joint
        in_space = self._class_sums(at, est)
        scale = 1 if est is EstimatorKind.RAW else self.sense_scale
        vs_scaled = vs * scale
        if kind is ScoreKind.LOG_LIKELIHOOD_RATIO:
            # Row: this verb, in class or not; column: the class, any verb.
            # No cell is negative, as the group's nouns are some of the
            # position's.
            n_scaled, k_of, space_of = n * scale, joint.get, in_space.get
            return [
                signed_g2(k_of(c, 0), space_of(c, 0), vs_scaled, n_scaled, scale)
                for c in classes
            ]
        ks = [joint.get(c, 0) for c in classes]
        if 0 in ks:
            c = classes[ks.index(0)]
            raise UnsupportedClassError(
                f"class {c!r} has no support with verb {v!r} at position {s.code!r}"
            )
        # P(c|v,s) * log2 (k n / (vs K)); the scale of k and K cancels in
        # the log.
        log2 = math.log2
        return [
            k / vs_scaled * log2(k * n / (vs * in_space[c])) for c, k in zip(classes, ks)
        ]
