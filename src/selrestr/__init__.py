"""Class-based selectional restrictions for verbs, learned from a
phrasally analyzed corpus and a noun taxonomy.

The pipeline: parse bracketed trees, extract (verb, syntactic relation,
noun) triples, aggregate counts, score candidate semantic classes, and
select a mutually disjoint set of classes per verb position.

Importing the package loads none of its modules: each name of
``__all__``, and each module as an attribute (``selrestr.stats``), is
imported on first access (PEP 562), so a command compiles only the
modules it runs.
"""

import importlib

# Each module, with the names of __all__ that it defines.
_EXPORTS = {
    "evaluate": (
        "DiagnosticLabel", "EvalReport", "GoldTriple", "diagnostic_summary", "evaluate_gold",
        "fulfills",
    ),
    "extract": ("LemmaTable", "TagSet", "extract_corpus", "extract_triples", "lemmatize"),
    "learner": ("LearnerConfig", "candidate_space", "learn_all", "select_disjoint"),
    "restrictions": ("EstimatorKind", "ScoreKind", "SelectionalRestriction"),
    "stats": ("CountsTable", "Scorer", "accumulate"),
    "taxonomy": ("SenseLexicon", "Taxonomy", "load_taxonomy"),
    "trees": ("ParseTree", "parse_bracketed"),
    "triples": ("SynRel", "TripleRecord"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = frozenset(_EXPORTS) | {"cli", "tsv"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value
