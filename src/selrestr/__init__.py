"""Class-based selectional restrictions for verbs, learned from a
phrasally analyzed corpus and a noun taxonomy.

The pipeline: parse bracketed trees, extract (verb, syntactic relation,
noun) triples, aggregate counts, score candidate semantic classes, and
select a mutually disjoint set of classes per verb position.
"""

from .evaluate import (
    DiagnosticLabel,
    EvalReport,
    GoldTriple,
    diagnostic_summary,
    evaluate_gold,
    fulfills,
)
from .extract import (
    LemmaTable,
    SynRel,
    TagSet,
    TripleRecord,
    extract_corpus,
    extract_triples,
    lemmatize,
)
from .learner import (
    LearnerConfig,
    SelectionalRestriction,
    candidate_space,
    learn_all,
    select_disjoint,
)
from .stats import CountsTable, EstimatorKind, ScoreKind, Scorer, accumulate
from .taxonomy import SenseLexicon, Taxonomy, load_taxonomy
from .trees import ParseTree, parse_bracketed

__all__ = [
    "CountsTable",
    "DiagnosticLabel",
    "EstimatorKind",
    "EvalReport",
    "GoldTriple",
    "LearnerConfig",
    "LemmaTable",
    "ParseTree",
    "ScoreKind",
    "Scorer",
    "SelectionalRestriction",
    "SenseLexicon",
    "SynRel",
    "TagSet",
    "Taxonomy",
    "TripleRecord",
    "accumulate",
    "candidate_space",
    "diagnostic_summary",
    "evaluate_gold",
    "extract_corpus",
    "extract_triples",
    "fulfills",
    "learn_all",
    "lemmatize",
    "load_taxonomy",
    "parse_bracketed",
    "select_disjoint",
]
