"""Seeded inputs for the benchmark workloads.

Every workload draws from ``random.Random(f"{workload}:{seed}")``, so one
seed fixes every input byte and the workloads never share a stream.

* ``corpus``: a bracketed treebank over a generated vocabulary, with the
  lemma table for its irregular forms, a taxonomy, a lexicon and held-out
  gold triples.  The generator knows which triple every clause yields, so
  it also writes the exact ``extract`` output it expects.
* ``learn_raw`` / ``learn_sense``: the shape of the scale world of
  acceptance criterion 8 (a 5-ary class tree whose lower four fifths are
  sense leaves, nouns with 1-3 senses, 40 verbs x 3 relations), written
  as a triples file or as a pre-aggregated counts file.

Run ``python3 perfbench/gen.py --seed N --out DIR`` to write all three
workloads' inputs under DIR/<workload>/ and print their SHA-256 digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("corpus", "learn_raw", "learn_sense")

# Sizes per workload.  "tiny" is for the self-test only.
SIZES = {
    "full": {
        "corpus": dict(classes=1250, nouns=2400, verbs=150, sentences=9000, gold=400),
        "learn_raw": dict(classes=1250, nouns=1000, verbs=40, triples=24_000, gold=500),
        "learn_sense": dict(classes=1250, nouns=1000, verbs=40, triples=12_000, gold=500),
    },
    "tiny": {
        "corpus": dict(classes=60, nouns=80, verbs=8, sentences=300, gold=40),
        "learn_raw": dict(classes=60, nouns=60, verbs=6, triples=1500, gold=40),
        "learn_sense": dict(classes=60, nouns=60, verbs=6, triples=1500, gold=40),
    },
}

SCALE_RELS = ("0", "1", "with")
PREPS = ("in", "on", "with", "for", "at", "from")

# Word shapes that the package's suffix rules leave alone: lowercase,
# alphabetic, ending in a consonant other than d, g or s, so neither
# ``-s``/``-es``/``-ies`` nor ``-ed``/``-ing`` can be stripped from a lemma.
_ONSETS = "bcfhjklmnprtvwz"
_VOWELS = "aeiou"
_CODAS = "bklmprt"


class Words:
    """Distinct pronounceable words; no two calls return the same one."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set[str] = set()

    def __call__(self) -> str:
        rng = self.rng
        while True:
            syllables = rng.randint(2, 3)
            word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))
            word += rng.choice(_CODAS)
            if word not in self.seen:
                self.seen.add(word)
                return word


def tree_taxonomy(n_classes: int, prefix: str = "c") -> tuple[list[str], dict[str, list[str]]]:
    """A 5-ary tree of classes; returns (ids, parents)."""
    ids = [f"{prefix}{k:05d}" for k in range(n_classes)]
    parents = {ids[0]: []}
    for k in range(1, n_classes):
        parents[ids[k]] = [ids[(k - 1) // 5]]
    return ids, parents


def closure(parents: dict[str, list[str]], class_id: str) -> set[str]:
    out = {class_id}
    stack = [class_id]
    while stack:
        for p in parents[stack.pop()]:
            if p not in out:
                out.add(p)
                stack.append(p)
    return out


def taxonomy_text(parents: dict[str, list[str]]) -> str:
    return "".join(f"{c}\t{','.join(ps) if ps else '-'}\n" for c, ps in parents.items())


def lexicon_text(senses: dict[str, list[str]]) -> str:
    return "".join(f"{n}\t{','.join(cs)}\n" for n, cs in senses.items())


def _senses(rng: random.Random, nouns: list[str], leaves: list[str]) -> dict[str, list[str]]:
    return {n: sorted(rng.sample(leaves, rng.randint(1, 3))) for n in nouns}


def _gold_line(rng: random.Random, verb: str, rel: str, noun: str, senses) -> str:
    sense = rng.choice(senses[noun]) if noun in senses and rng.random() < 0.7 else "-"
    r = rng.random()
    status = "ok" if r < 0.9 else ("parser_err" if r < 0.95 else "lemma_err")
    return f"{verb}\t{rel}\t{noun}\t{sense}\t{status}\n"


# -- scale worlds ----------------------------------------------------------


def _scale_world(rng: random.Random, size: dict):
    words = Words(rng)
    ids, parents = tree_taxonomy(size["classes"])
    nouns = [words() for _ in range(size["nouns"])]
    senses = _senses(rng, nouns, ids[len(ids) // 5:])
    verbs = [words() for _ in range(size["verbs"])]
    triples = [
        (rng.choice(verbs), rng.choice(SCALE_RELS), rng.choice(nouns))
        for _ in range(size["triples"])
    ]
    gold = "".join(
        _gold_line(rng, rng.choice(verbs), rng.choice(SCALE_RELS), rng.choice(nouns), senses)
        for _ in range(size["gold"])
    )
    files = {
        "taxonomy.tsv": taxonomy_text(parents),
        "lexicon.tsv": lexicon_text(senses),
        "gold.tsv": gold,
    }
    return files, triples


def gen_learn_raw(rng: random.Random, size: dict) -> tuple[dict, dict]:
    files, triples = _scale_world(rng, size)
    files["triples.tsv"] = "".join(f"{v}\t{s}\t{n}\n" for v, s, n in triples)
    return files, {}


def gen_learn_sense(rng: random.Random, size: dict) -> tuple[dict, dict]:
    files, triples = _scale_world(rng, size)
    counts: dict[tuple[str, str, str], int] = {}
    for key in triples:
        counts[key] = counts.get(key, 0) + 1
    files["counts.tsv"] = "".join(f"{v}\t{s}\t{n}\t{c}\n" for (v, s, n), c in counts.items())
    return files, {}


# -- treebank --------------------------------------------------------------


class _Corpus:
    """Builds sentences and, next to each, the records ``extract`` must emit."""

    def __init__(self, rng: random.Random, size: dict):
        self.rng = rng
        words = Words(rng)
        ids, self.parents = tree_taxonomy(size["classes"])
        self.nouns = [words() for _ in range(size["nouns"])]
        # One noun in twenty is missing from the lexicon, as real corpora
        # hold words the taxonomy does not cover.
        covered = [n for n in self.nouns if rng.random() >= 0.05]
        self.senses = _senses(rng, covered, ids[len(ids) // 5:])
        self.verbs = [words() for _ in range(size["verbs"])]
        self.adjectives = [words() for _ in range(200)]
        self.lemma_lines: list[str] = []
        self.noun_plural = {}
        for n in self.nouns:
            if rng.random() < 0.05:
                form = words()
                self.lemma_lines.append(f"{form}\tnoun\t{n}\n")
                self.noun_plural[n] = form
            else:
                self.noun_plural[n] = n + "s"
        self.verb_past = {}
        for v in self.verbs:
            if rng.random() < 0.1:
                form = words()
                self.lemma_lines.append(f"{form}\tverb\t{v}\n")
                self.verb_past[v] = form
            else:
                self.verb_past[v] = v + "ed"
        rng.shuffle(self.lemma_lines)
        # Each verb position prefers the nouns under one mid-level class.
        mid = ids[6:31]
        under: dict[str, list[str]] = {c: [] for c in mid}
        for n, ss in self.senses.items():
            for c in set().union(*(closure(self.parents, s) for s in ss)) & set(mid):
                under[c].append(n)
        self.preferred = {}
        for v in self.verbs:
            for rel in ("0", "1") + PREPS:
                pool = under[rng.choice(mid)]
                self.preferred[v, rel] = pool or self.nouns
        self.kept: list[str] = []
        self.discards: list[str] = []

    def noun_for(self, verb: str, rel: str) -> str:
        rng = self.rng
        if rng.random() < 0.6:
            return rng.choice(self.preferred[verb, rel])
        return rng.choice(self.nouns)

    # np, subject and pp return bracketed text and the record it yields:
    # ("kept", noun lemma) or (discard reason, surface form).

    def np(self, verb: str, rel: str, first: bool = False):
        rng = self.rng
        noun = self.noun_for(verb, rel)
        det = "The" if first else rng.choice(("the", "a", "every"))
        mods = ""
        if rng.random() < 0.3:
            mods += f" (JJ {rng.choice(self.adjectives)})"
        if rng.random() < 0.1:
            mods += f" (NN {rng.choice(self.nouns)})"
        if rng.random() < 0.4:
            return f"(NP (DT {det}){mods} (NNS {self.noun_plural[noun]}))", ("kept", noun)
        return f"(NP (DT {det}){mods} (NN {noun}))", ("kept", noun)

    def subject(self, verb: str):
        rng = self.rng
        r = rng.random()
        if r < 0.08:
            pronoun = rng.choice(("He", "She", "They", "It"))
            return f"(NP (PRP {pronoun}))", ("NonNounHead", pronoun)
        if r < 0.12:
            inner, _ = self.np(verb, "0", first=True)
            of, _ = self.np(verb, "0")
            surface = of.rsplit(" ", 1)[1].rstrip(")")
            return f"(NP {inner} (PP (IN of) {of}))", ("NonNounHead", surface)
        return self.np(verb, "0", first=True)

    def pp(self, verb: str):
        rng = self.rng
        prep = rng.choice(PREPS)
        if rng.random() < 0.06:
            number = str(rng.randint(2, 99))
            head = rng.choice(("%", f"{number}m", f"{number}s"))
            rec = ("LemmaFailure", head)
            return f"(PP (IN {prep}) (NP (CD {number}) (NN {head})))", prep, rec
        text, rec = self.np(verb, prep)
        return f"(PP (IN {prep}) {text})", prep, rec

    def emit(self, verb: str, rel: str, rec) -> None:
        kind, noun = rec
        if kind == "kept":
            self.kept.append(f"{verb}\t{rel}\t{noun}\n")
        else:
            self.discards.append(f"{verb}\t{rel}\t{noun}\t{kind}\n")

    def clause(self, depth: int = 0) -> str:
        """One clause; records are emitted in the extractor's preorder."""
        rng = self.rng
        verb = rng.choice(self.verbs)
        shape = rng.random()
        label = "S"
        subject = None
        if shape < 0.05:
            label = "SINV"
            pre = "(ADVP (RB then))"
        elif shape < 0.1:
            pre = ""  # imperative: no subject
        else:
            pre, subject = self.subject(verb)
        if subject is not None:
            self.emit(verb, "0", subject)

        modal = rng.random() < 0.25 or label == "SINV"
        if modal or not pre:
            head = f"(VB {verb})"
        else:
            head = rng.choice((f"(VBD {self.verb_past[verb]})", f"(VBZ {verb}s)"))

        parts = [head]
        if depth == 0 and rng.random() < 0.08:
            # The extractor visits the embedded clause after this one, so
            # its records follow this clause's subject.
            parts.append(f"(SBAR (IN that) {self.clause(depth + 1)})")
        else:
            if rng.random() < 0.8:
                text, rec = self.np(verb, "1")
                parts.append(text)
                self.emit(verb, "1", rec)
            for _ in range(rng.choice((0, 0, 1, 1, 2))):
                text, prep, rec = self.pp(verb)
                parts.append(text)
                self.emit(verb, prep, rec)
        vp = f"(VP {' '.join(parts)})"
        if modal:
            vp = f"(VP (MD {rng.choice(('will', 'may', 'can'))}) {vp})"
        inner = f"{pre} {vp}".strip()
        return f"({label} {inner})" if depth else f"({label} {inner} (. .))"


def gen_corpus(rng: random.Random, size: dict) -> tuple[dict, dict]:
    c = _Corpus(rng, size)
    sentences = [c.clause() for _ in range(size["sentences"])]
    gold = []
    for _ in range(size["gold"]):
        verb = rng.choice(c.verbs)
        rel = rng.choice(("0", "1") + PREPS)
        gold.append(_gold_line(rng, verb, rel, c.noun_for(verb, rel), c.senses))
    files = {
        "corpus.mrg": "\n".join(sentences) + "\n",
        "lemmas.tsv": "".join(c.lemma_lines),
        "taxonomy.tsv": taxonomy_text(c.parents),
        "lexicon.tsv": lexicon_text(c.senses),
        "gold.tsv": "".join(gold),
    }
    expected = {"triples.tsv": "".join(c.kept), "triples.tsv.discards": "".join(c.discards)}
    return files, expected


GENERATORS = {"corpus": gen_corpus, "learn_raw": gen_learn_raw, "learn_sense": gen_learn_sense}


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def generate(workload: str, seed: int, out: Path, size: str = "full") -> tuple[dict, dict]:
    """Write the workload's inputs under ``out``.

    Returns (input digests, expected outputs): the SHA-256 of every input
    file, and the exact text of any output the generator can predict.
    """
    rng = random.Random(f"{workload}:{seed}")
    files, expected = GENERATORS[workload](rng, SIZES[size][workload])
    out.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
        digests[name] = sha256_text(text)
    return digests, expected


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    report = {w: generate(w, args.seed, args.out / w)[0] for w in WORKLOADS}
    print(json.dumps(report, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
