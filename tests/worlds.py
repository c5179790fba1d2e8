"""Seeded random taxonomies, lexicons and corpora for property tests.

Sense classes are always leaves of the generated DAG (they never serve
as parents), so the set of senses in use forms an antichain by
construction; with ``full_lexicon`` every corpus noun has senses, which
makes the leaf classes partition all class-weighted probability mass.
"""

from __future__ import annotations

import random

RELS = ("0", "1", "with")


def make_world(rng: random.Random, full_lexicon: bool = True,
               max_classes: int = 50, max_triples: int = 100, max_senses: int = 3):
    """Returns (parents, senses, triples) in plain-data form; each lexicon
    noun has 1 to ``max_senses`` senses (fewer if there are fewer leaves)."""
    n_internal = rng.randint(1, 12)
    internal = [f"i{k}" for k in range(n_internal)]
    parents: dict[str, set[str]] = {}
    for idx, c in enumerate(internal):
        if idx == 0 or rng.random() < 0.1:
            parents[c] = set()
        else:
            parents[c] = set(rng.sample(internal[:idx], rng.randint(1, min(2, idx))))
    n_leaves = rng.randint(1, max_classes - n_internal)
    leaves = [f"l{k}" for k in range(n_leaves)]
    for leaf in leaves:
        parents[leaf] = set(rng.sample(internal, rng.randint(1, min(2, n_internal))))

    nouns = [f"n{k}" for k in range(rng.randint(1, 15))]
    senses: dict[str, frozenset[str]] = {}
    for n in nouns:
        if full_lexicon or rng.random() < 0.8:
            senses[n] = frozenset(rng.sample(leaves, rng.randint(1, min(max_senses, n_leaves))))

    verbs = [f"v{k}" for k in range(rng.randint(1, 5))]
    rels = RELS[: rng.randint(1, 3)]
    triples = [
        (rng.choice(verbs), rng.choice(rels), rng.choice(nouns))
        for _ in range(rng.randint(1, max_triples))
    ]
    return parents, senses, triples


def taxonomy_text(parents: dict[str, set[str]]) -> str:
    lines = []
    for c in sorted(parents):
        ps = ",".join(sorted(parents[c])) if parents[c] else "-"
        lines.append(f"{c}\t{ps}")
    return "\n".join(lines) + "\n"


def lexicon_text(senses: dict[str, frozenset[str]]) -> str:
    lines = [f"{n}\t{','.join(sorted(cs))}" for n, cs in sorted(senses.items())]
    return "\n".join(lines) + "\n"
