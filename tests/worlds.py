"""Seeded random taxonomies, lexicons and corpora for property tests.

By default ``make_world`` draws sense classes from the leaves of the
generated DAG (they never serve as parents), so the set of senses in use
forms an antichain by construction; with ``full_lexicon`` every corpus
noun has senses, which makes the leaf classes partition all
class-weighted probability mass.  With ``nested_senses`` senses come
from every class instead, as in WordNet: two senses of one noun may
nest, and then a shared ancestor lies above more than one of them.

``paper_world`` draws a world of the shape the paper learns over: a
deep taxonomy of tens of thousands of classes with a few second
parents, nouns with up to 33 senses at any level, and Zipf-distributed
verbs.  It is a measurement case (``paper_scale.py``) at full size and
a property test at toy size.
"""

from __future__ import annotations

import random
from itertools import accumulate

RELS = ("0", "1", "with")


def make_world(rng: random.Random, full_lexicon: bool = True,
               max_classes: int = 50, max_triples: int = 100, max_senses: int = 3,
               nested_senses: bool = False):
    """Returns (parents, senses, triples) in plain-data form; each lexicon
    noun has 1 to ``max_senses`` senses (fewer if there are fewer leaves,
    or classes with ``nested_senses``)."""
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

    pool = internal + leaves if nested_senses else leaves
    nouns = [f"n{k}" for k in range(rng.randint(1, 15))]
    senses: dict[str, frozenset[str]] = {}
    for n in nouns:
        if full_lexicon or rng.random() < 0.8:
            senses[n] = frozenset(rng.sample(pool, rng.randint(1, min(max_senses, len(pool)))))

    verbs = [f"v{k}" for k in range(rng.randint(1, 5))]
    rels = RELS[: rng.randint(1, 3)]
    triples = [
        (rng.choice(verbs), rng.choice(rels), rng.choice(nouns))
        for _ in range(rng.randint(1, max_triples))
    ]
    return parents, senses, triples


def paper_world(rng: random.Random, n_classes: int = 60_000, n_nouns: int = 40_000,
                n_triples: int = 200_000, n_verbs: int = 400, max_depth: int = 32,
                mean_depth: int = 16, second_parents: float = 0.02):
    """Returns (parents, senses, triples) in plain-data form.

    A spine ``c0`` (the root) to ``c{max_depth}`` reaches every depth; each
    other class draws a depth from a normal law of mean ``mean_depth`` and
    spread ``mean_depth / 3``, takes a parent one level up and, with
    probability ``second_parents``, a second one from any shallower level,
    so the graph is a DAG of depth ``max_depth``.  Each noun has
    min(33, Pareto(1.7)) senses drawn from all classes: 69% have one and
    the mean is about 2.  Each triple has a verb drawn with Zipf weights
    1/r, relation ``0`` or ``1`` and a uniform noun."""
    levels = [[f"c{d}"] for d in range(max_depth + 1)]
    parents: dict[str, set[str]] = {"c0": set()}
    parents.update((f"c{d}", {f"c{d - 1}"}) for d in range(1, max_depth + 1))
    depths = sorted(
        min(max_depth, max(1, round(rng.gauss(mean_depth, mean_depth / 3))))
        for _ in range(n_classes - max_depth - 1)
    )
    for k, d in enumerate(depths, start=max_depth + 1):
        c = f"c{k}"
        parents[c] = {rng.choice(levels[d - 1])}
        if rng.random() < second_parents:
            parents[c].add(rng.choice(levels[rng.randrange(d)]))
        levels[d].append(c)

    classes = list(parents)
    senses = {
        f"n{k}": frozenset(
            rng.sample(classes, min(33, n_classes, int(rng.paretovariate(1.7))))
        )
        for k in range(n_nouns)
    }
    verbs = [f"v{k}" for k in range(n_verbs)]
    zipf = list(accumulate(1 / r for r in range(1, n_verbs + 1)))
    triples = list(zip(
        rng.choices(verbs, cum_weights=zipf, k=n_triples),
        rng.choices(RELS[:2], k=n_triples),
        rng.choices(list(senses), k=n_triples),
    ))
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


def triples_text(triples) -> str:
    return "".join(f"{v}\t{s}\t{n}\n" for v, s, n in triples)
