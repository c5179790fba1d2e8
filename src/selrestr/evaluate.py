"""Scoring of acquired restrictions against annotated held-out triples.

Precision and recall share a numerator (triples satisfying some
restriction learned for their verb/position) and differ only in the
denominator: precision counts triples whose position has restrictions
at all, recall counts every evaluated triple.  That reading is the only
one under which precision can exceed recall, and both are kept as exact
ratios until display.

A triple is checked by ``fulfills`` against its own position's
restrictions only, grouped by (verb, rel) once per evaluation: the
noun's class table (``SenseLexicon.sense_hits``) is looked up once per
triple, and each restriction's class is tested in it.

Diagnostic summaries aggregate per-class human judgments (a label file)
into a table of class counts and noun-occurrence counts per label.
Occurrence totals may exceed the number of triples because a noun can
belong to several labeled classes at once.

Of the commands, only ``eval`` and ``report`` load this module.
``fractions`` and ``json`` are imported by the functions that use them:
``report`` needs neither, and ``eval`` needs ``json`` only for
``--format json``.
"""

from __future__ import annotations

import enum
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .restrictions import VERB_OR_CLASS, SelectionalRestriction
from .triples import VERB_OR_NOUN, ExtractionError, SynRel, TripleRecord, percentage
from .tsv import RecordError, Spec, count, name, read, token

if TYPE_CHECKING:
    from decimal import Decimal
    from fractions import Fraction

    from .taxonomy import SenseLexicon

PARSER_ERR = "parser_err"
LEMMA_ERR = "lemma_err"


class GoldTriple(NamedTuple):
    """A held-out triple, optionally annotated with the sense actually
    used in context and with the extraction verdict for its sentence."""

    record: TripleRecord
    correct_sense: str | None = None
    error: str | None = None

    @property
    def extraction_ok(self) -> bool:
        return self.error is None


class DiagnosticLabel(enum.Enum):
    """Human verdict on one acquired restriction class, declared in the
    row order of the diagnostic table."""

    OK = "Ok"
    UP_ABS = "UpAbs"
    DOWN_ABS = "DownAbs"
    SENSES = "Senses"
    NOISE = "Noise"


class DiagnosticRow(NamedTuple):
    label: str
    classes: int
    class_pct: Decimal
    occurrences: int
    occurrence_pct: Decimal


# label line: verb, rel, class, label, optional occurrence count
LabelRow = tuple[str, SynRel, str, DiagnosticLabel, int | None]


def aligned(rows: Sequence[Sequence[str]], align: str) -> list[str]:
    """``rows`` as lines of cells two spaces apart, each column padded to
    its widest cell on the side ``align`` names for it (``l`` or ``r``),
    with trailing spaces dropped."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(align))]
    return [
        "  ".join(
            cell.ljust(w) if side == "l" else cell.rjust(w)
            for cell, w, side in zip(row, widths, align)
        ).rstrip()
        for row in rows
    ]


def fulfills(
    tr: TripleRecord,
    srs: Iterable[SelectionalRestriction],
    lexicon: SenseLexicon,
) -> bool:
    """True iff some restriction for (tr.verb, tr.rel) covers tr.noun.

    The noun's class table is looked up once; each restriction's class is
    tested in it before its verb and relation."""
    verb, rel, noun, reason = tr
    if reason is not None:
        raise ValueError("cannot evaluate a discarded triple")
    if noun not in lexicon:
        return False
    hits = lexicon.sense_hits(noun)
    for sr in srs:
        if sr.class_id in hits and sr.verb == verb and sr.rel == rel:
            return True
    return False


def _ratios(
    triples: Sequence[TripleRecord],
    srs: Iterable[SelectionalRestriction],
    lexicon: SenseLexicon,
) -> tuple[Fraction | None, Fraction | None]:
    """(precision, recall) over the triples; a discarded one raises, as in
    ``fulfills``.

    The restrictions are grouped by (verb, rel) once, and each triple is
    checked against its own position's restrictions only, in one pass.  A
    triple at a position without restrictions is never fulfilled, so one
    count of fulfilled triples serves both numerators."""
    from fractions import Fraction

    by_position: dict[tuple[str, SynRel], list[SelectionalRestriction]] = {}
    # A restrictions file holds each position's restrictions in one run, as
    # learn writes them; each run joins its group in one step.
    for position, run in groupby(srs, itemgetter(0, 1)):
        by_position.setdefault(position, []).extend(run)
    hits = restricted = 0
    for t in triples:
        group = by_position.get(t[:2])
        if group is None:
            group = ()
        else:
            restricted += 1
        if fulfills(t, group, lexicon):
            hits += 1
    return (
        Fraction(hits, restricted) if restricted else None,
        Fraction(hits, len(triples)) if triples else None,
    )


TOTAL_LABEL = "Total"


def diagnostic_summary(
    labels: Iterable[tuple[object, DiagnosticLabel, int]],
) -> list[DiagnosticRow]:
    """Aggregate (class key, label, occurrence count) judgments into one
    row per label plus a Total row.  A key may carry only one label."""
    seen: set[object] = set()
    classes = dict.fromkeys(DiagnosticLabel, 0)
    occurrences = dict.fromkeys(DiagnosticLabel, 0)
    for key, label, count in labels:
        if key in seen:
            raise ValueError(f"duplicate diagnostic label for {key!r}")
        if count < 0:
            raise ValueError(f"negative occurrence count for {key!r}")
        seen.add(key)
        classes[label] += 1
        occurrences[label] += count
    total_classes = sum(classes.values())
    total_occ = sum(occurrences.values())
    rows = [
        DiagnosticRow(
            label.value,
            classes[label],
            percentage(classes[label], total_classes),
            occurrences[label],
            percentage(occurrences[label], total_occ),
        )
        for label in DiagnosticLabel
    ]
    rows.append(
        DiagnosticRow(
            TOTAL_LABEL,
            total_classes,
            percentage(total_classes, total_classes),
            total_occ,
            percentage(total_occ, total_occ),
        )
    )
    return rows


# -- annotation files ----------------------------------------------------


# An extraction status, as the error it names (None for ok).
_STATUS = {"ok": None, PARSER_ERR: PARSER_ERR, LEMMA_ERR: LEMMA_ERR}
GOLD = Spec(
    "gold",
    ExtractionError,
    (
        VERB_OR_NOUN, SynRel, VERB_OR_NOUN, name("empty sense class (use - for unknown)"),
        token(_STATUS, f"bad status {{!r}}, expected one of {', '.join(_STATUS)}"),
    ),
    (3, 5),
)


def read_gold(text: str) -> list[GoldTriple]:
    """Gold file: verb, rel, noun, then optionally the correct sense
    class ("-" if unknown) and an extraction status token."""
    return read(text, GOLD, _gold_triples)


def _gold_triples(records: list[tuple], lines) -> list[GoldTriple]:
    # Checked fields: skip the Python-level __new__ of both named tuples.
    new = tuple.__new__
    return [
        new(GoldTriple, (new(TripleRecord, (v, s, n, None)), sense if sense != "-" else None, err))
        for v, s, n, sense, err in records
    ]


_LABELS = {label.value: label for label in DiagnosticLabel}
LABELS = Spec(
    "labels",
    ExtractionError,
    (
        VERB_OR_CLASS, SynRel, VERB_OR_CLASS,
        token(_LABELS, f"unknown label {{!r}}, expected one of {', '.join(_LABELS)}"),
        count("occurrence count", 0, "negative occurrence count"),
    ),
    (4, 5),
)


def read_labels(text: str) -> list[LabelRow]:
    """Label file: verb, rel, class, label, optional occurrence count.

    Without the count column, occurrences are recounted from the gold
    triples at evaluation time."""
    return read(text, LABELS, check=_unique_labels)


def _unique_labels(records: list[LabelRow], lines) -> None:
    if len({record[:3] for record in records}) < len(records):
        seen = set()
        for i, (verb, rel, class_id, *_) in enumerate(records):
            if (verb, rel, class_id) in seen:
                raise RecordError(i, f"duplicate label for ({verb}, {rel.code}, {class_id})")
            seen.add((verb, rel, class_id))


def occurrence_count(
    triples: Iterable[TripleRecord],
    verb: str,
    rel: SynRel,
    class_id: str,
    lexicon: SenseLexicon,
) -> int:
    return sum(
        1
        for t in triples
        if t.verb == verb
        and t.rel == rel
        and t.noun in lexicon
        and class_id in lexicon.sense_hits(t.noun)
    )


# -- assembled report ----------------------------------------------------


class EvalReport(NamedTuple):
    gold_total: int
    excluded_parser: int
    excluded_lemma: int
    evaluated: int
    lexicon_covered: int
    sense_annotated: int
    sense_covered: int
    precision: Fraction | None
    recall: Fraction | None
    diagnostics: list[DiagnosticRow] | None = None

    def render_text(self) -> str:
        lines = [
            f"gold triples     {self.gold_total}",
            f"excluded         {self.excluded_parser + self.excluded_lemma}"
            f" (parser {self.excluded_parser}, lemma {self.excluded_lemma})",
            f"evaluated        {self.evaluated}",
            "noun in lexicon  " + self._share(self.lexicon_covered, self.evaluated),
            "sense covered    " + self._share(self.sense_covered, self.sense_annotated),
            "precision        " + self._ratio(self.precision),
            "recall           " + self._ratio(self.recall),
        ]
        if self.diagnostics is not None:
            lines.append("")
            lines.extend(render_diagnostics(self.diagnostics))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _share(part: int, whole: int) -> str:
        return f"{part}/{whole} ({percentage(part, whole)}%)"

    @staticmethod
    def _ratio(value: Fraction | None) -> str:
        if value is None:
            return "N/A"
        return f"{float(value):.3f} ({value.numerator}/{value.denominator})"

    def to_dict(self) -> dict:
        def ratio(value: Fraction | None):
            if value is None:
                return None
            return {
                "value": float(value),
                "numerator": value.numerator,
                "denominator": value.denominator,
            }

        data = {
            "gold_total": self.gold_total,
            "excluded": {"parser": self.excluded_parser, "lemma": self.excluded_lemma},
            "evaluated": self.evaluated,
            "lexicon_covered": self.lexicon_covered,
            "sense_annotated": self.sense_annotated,
            "sense_covered": self.sense_covered,
            "precision": ratio(self.precision),
            "recall": ratio(self.recall),
        }
        if self.diagnostics is not None:
            data["diagnostics"] = [
                {
                    "label": row.label,
                    "classes": row.classes,
                    "class_pct": str(row.class_pct),
                    "occurrences": row.occurrences,
                    "occurrence_pct": str(row.occurrence_pct),
                }
                for row in self.diagnostics
            ]
        return data

    def render_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), indent=2) + "\n"


def render_diagnostics(rows: Sequence[DiagnosticRow]) -> list[str]:
    header = ("label", "classes", "class%", "occurrences", "occ%")
    return aligned([header] + [tuple(map(str, row)) for row in rows], "lrrrr")


def evaluate_gold(
    gold: Sequence[GoldTriple],
    srs: Sequence[SelectionalRestriction],
    lexicon: SenseLexicon,
    labels: Sequence[LabelRow] | None = None,
) -> EvalReport:
    """Full report over a gold file: coverage accounting, precision and
    recall on the well-extracted triples, optional diagnostics table."""
    records = [g.record for g in gold if g.extraction_ok]
    diagnostics = None
    if labels is not None:
        # A label without a count counts the records of its own position.
        by_position: dict[tuple[str, SynRel], list[TripleRecord]] = {}
        for t in records:
            by_position.setdefault((t.verb, t.rel), []).append(t)
        entries = []
        for verb, rel, class_id, label, count in labels:
            if count is None:
                group = by_position.get((verb, rel), ())
                count = occurrence_count(group, verb, rel, class_id, lexicon)
            entries.append(((verb, rel, class_id), label, count))
        diagnostics = diagnostic_summary(entries)
    sense_annotated = [g for g in gold if g.extraction_ok and g.correct_sense is not None]
    precision_value, recall_value = _ratios(records, srs, lexicon)
    return EvalReport(
        gold_total=len(gold),
        excluded_parser=sum(1 for g in gold if g.error == PARSER_ERR),
        excluded_lemma=sum(1 for g in gold if g.error == LEMMA_ERR),
        evaluated=len(records),
        lexicon_covered=sum(1 for t in records if t.noun in lexicon),
        sense_annotated=len(sense_annotated),
        sense_covered=sum(
            1
            for g in sense_annotated
            if g.record.noun in lexicon
            and g.correct_sense in lexicon.senses(g.record.noun)
        ),
        precision=precision_value,
        recall=recall_value,
        diagnostics=diagnostics,
    )
