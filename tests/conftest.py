import sys
from importlib.resources import files
from pathlib import Path

import pytest

from selrestr.triples import SynRel, TripleRecord
from selrestr.stats import Scorer, accumulate
from selrestr.taxonomy import load_taxonomy

sys.path.insert(0, str(Path(__file__).parent))

from worlds import lexicon_text, taxonomy_text  # noqa: E402

DATA = Path(str(files("selrestr").joinpath("data")))
TEST_DATA = Path(__file__).parent / "data"

# the 7-occurrence toy corpus in plain-data form, one tuple per occurrence
TOY_TRIPLES = [
    ("drink", "0", "dog"),
    ("drink", "0", "dog"),
    ("drink", "0", "cat"),
    ("drink", "1", "water"),
    ("drink", "1", "water"),
    ("drink", "1", "water"),
    ("sleep", "0", "man"),
]

TOY_PARENTS = {
    "entity": set(),
    "animal": {"entity"},
    "dog": {"animal"},
    "cat": {"animal"},
    "person": {"entity"},
    "man": {"person"},
    "liquid": {"entity"},
    "water": {"liquid"},
}

TOY_SENSES = {
    "cat": frozenset({"cat"}),
    "dog": frozenset({"dog"}),
    "man": frozenset({"man"}),
    "water": frozenset({"water"}),
}


def build_world(parents, senses, triples) -> Scorer:
    """Plain-data world -> package objects, via the real file parsers."""
    _, lexicon = load_taxonomy(taxonomy_text(parents), lexicon_text(senses))
    table = accumulate(TripleRecord(v, SynRel(s), n) for v, s, n in triples)
    return Scorer(table, lexicon)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def test_data_dir() -> Path:
    return TEST_DATA


@pytest.fixture(scope="session")
def toy_scorer() -> Scorer:
    return build_world(TOY_PARENTS, TOY_SENSES, TOY_TRIPLES)
