"""Brute-force reference implementations used to pin expected values.

Everything here recomputes quantities from first principles over explicit
triple lists (``(verb, rel_code, noun)`` tuples, one per occurrence) and a
plain parent map, with no imports from the package under test, so test
expectations are cross-checked rather than copied.  The class-sum loops
take a noun -> count map and the package's lexicon object, as the scorer
does, but copy out only its parent links (the taxonomy's ``_parents``)
and sense lists (the lexicon's ``_senses``) and walk them with this
module's own ``closure``, one noun at a time: they share no memo with
the scorer's single walk that they are the reference for.  The bracket reader and the triple
extractor work on plain ``(label, children, token)`` tuples; the
extractor takes the lemmatizer and the tag set from its caller.
"""

from __future__ import annotations

import math
from fractions import Fraction


def closure(parents: dict[str, set[str]], cls: str) -> set[str]:
    out = {cls}
    stack = [cls]
    while stack:
        for p in parents[stack.pop()]:
            if p not in out:
                out.add(p)
                stack.append(p)
    return out


def related(parents: dict[str, set[str]], a: str, b: str) -> bool:
    return a in closure(parents, b) or b in closure(parents, a)


def noun_classes(parents, senses, noun: str) -> set[str]:
    out: set[str] = set()
    for s in senses[noun]:
        out |= closure(parents, s)
    return out


def sense_counts(parents, senses, noun: str) -> dict[str, int]:
    """Each class at or above a sense of the noun -> how many of the
    noun's senses lie at or below it."""
    counts: dict[str, int] = {}
    for s in senses[noun]:
        for cls in closure(parents, s):
            counts[cls] = counts.get(cls, 0) + 1
    return counts


def weight(parents, senses, noun: str, cls: str) -> Fraction:
    """Fraction of the noun's senses lying at or below ``cls``."""
    hits = sum(1 for s in senses[noun] if cls in closure(parents, s))
    return Fraction(hits, len(senses[noun]))


def class_count(triples, parents, senses, v, s, c, sense_corrected=False) -> Fraction:
    total = Fraction(0)
    for tv, ts, tn in triples:
        if tv != v or ts != s or tn not in senses:
            continue
        if sense_corrected:
            total += weight(parents, senses, tn, c)
        elif c in noun_classes(parents, senses, tn):
            total += 1
    return total


def position_class_count(triples, parents, senses, s, c, sense_corrected=False) -> Fraction:
    total = Fraction(0)
    for tv, ts, tn in triples:
        if ts != s or tn not in senses:
            continue
        if sense_corrected:
            total += weight(parents, senses, tn, c)
        elif c in noun_classes(parents, senses, tn):
            total += 1
    return total


def global_class_count(triples, parents, senses, c, sense_corrected=False) -> Fraction:
    total = Fraction(0)
    for _tv, _ts, tn in triples:
        if tn not in senses:
            continue
        if sense_corrected:
            total += weight(parents, senses, tn, c)
        elif c in noun_classes(parents, senses, tn):
            total += 1
    return total


def cond_probs(triples, parents, senses, v, s, c, sense_corrected=False):
    """(P(c|v,s), P(v|s), P(c|s), P(v,c|s)) as exact rationals."""
    total = sum(1 for t in triples if t[1] == s)
    vs = sum(1 for t in triples if t[0] == v and t[1] == s)
    joint = class_count(triples, parents, senses, v, s, c, sense_corrected)
    at_s = position_class_count(triples, parents, senses, s, c, sense_corrected)
    return (
        Fraction(joint) / vs,
        Fraction(vs, total),
        Fraction(at_s) / total,
        Fraction(joint) / total,
    )


def assoc(triples, parents, senses, v, s, c, sense_corrected=False) -> float | None:
    """None when the class has no support with (v, s)."""
    p_c_vs, p_v_s, p_c_s, p_vc_s = cond_probs(triples, parents, senses, v, s, c, sense_corrected)
    if p_vc_s == 0:
        return None
    return float(p_c_vs) * math.log2(p_vc_s / (p_v_s * p_c_s))


def pair_mi(triples, parents, senses, v, s, c, sense_corrected=False) -> float | None:
    grand = len(triples)
    vs = sum(1 for t in triples if t[0] == v and t[1] == s)
    joint = class_count(triples, parents, senses, v, s, c, sense_corrected)
    if joint == 0:
        return None
    p_vsc = Fraction(joint) / grand
    p_vs = Fraction(vs, grand)
    p_c = Fraction(global_class_count(triples, parents, senses, c, sense_corrected)) / grand
    return float(Fraction(joint) / vs) * math.log2(p_vsc / (p_vs * p_c))


def g2_table(triples, parents, senses, v, s, c, sense_corrected=False):
    total = sum(1 for t in triples if t[1] == s)
    vs = sum(1 for t in triples if t[0] == v and t[1] == s)
    k11 = class_count(triples, parents, senses, v, s, c, sense_corrected)
    at_s = position_class_count(triples, parents, senses, s, c, sense_corrected)
    return k11, vs - k11, at_s - k11, total - vs - (at_s - k11)


def g2(k11, k12, k21, k22) -> float:
    r1, r2 = k11 + k12, k21 + k22
    c1, c2 = k11 + k21, k12 + k22
    n = r1 + r2
    if 0 in (r1, r2, c1, c2):
        return 0.0
    total = 0.0
    for k, e in (
        (k11, Fraction(r1) * c1 / n),
        (k12, Fraction(r1) * c2 / n),
        (k21, Fraction(r2) * c1 / n),
        (k22, Fraction(r2) * c2 / n),
    ):
        if k > 0:
            total += float(k) * math.log(float(Fraction(k) / e))
    total *= 2.0
    if Fraction(k11) == Fraction(r1) * c1 / n:
        return 0.0
    return total if k11 > Fraction(r1) * c1 / n else -total


# -- class-sum loops over the package's lexicon ----------------------------


def _maps(lexicon):
    """The lexicon's parent links and sense lists as the plain maps
    ``closure`` and ``sense_counts`` take."""
    return dict(lexicon.taxonomy._parents), dict(lexicon._senses)


def support_and_distinct(noun_counts, lexicon) -> tuple[dict[str, int], dict[str, int]]:
    """Raw occurrences and distinct nouns under each class; nouns missing
    from the lexicon support nothing."""
    parents, senses = _maps(lexicon)
    support: dict[str, int] = {}
    distinct: dict[str, int] = {}
    for n, c in noun_counts.items():
        if n not in senses:
            continue
        for cls in noun_classes(parents, senses, n):
            support[cls] = support.get(cls, 0) + c
            distinct[cls] = distinct.get(cls, 0) + 1
    return support, distinct


def class_sums(noun_counts, lexicon, sense_scale: int | None = None) -> dict[str, int]:
    """Raw class sums, or with ``sense_scale`` the sense-corrected sums
    multiplied by it (each sense fraction must come out whole)."""
    parents, senses = _maps(lexicon)
    sums: dict[str, int] = {}
    for n, c in noun_counts.items():
        if n not in senses:
            continue
        if sense_scale is None:
            for cls in noun_classes(parents, senses, n):
                sums[cls] = sums.get(cls, 0) + c
        else:
            unit = c * (sense_scale // len(senses[n]))
            for cls, hits in sense_counts(parents, senses, n).items():
                sums[cls] = sums.get(cls, 0) + unit * hits
    return sums


def score_all_candidates(triples, parents, senses, v, s, threshold, sense_corrected=False):
    """(class -> score) for every class meeting the raw support threshold."""
    support: dict[str, int] = {}
    for tv, ts, tn in triples:
        if tv == v and ts == s and tn in senses:
            for c in noun_classes(parents, senses, tn):
                support[c] = support.get(c, 0) + 1
    out = {}
    for c, supp in support.items():
        if supp >= threshold:
            out[c] = assoc(triples, parents, senses, v, s, c, sense_corrected)
    return out


def greedy_disjoint(parents, scored: dict[str, float], tiebreak: dict[str, tuple]) -> list[str]:
    """Greedy max-score extraction deleting hyperonymy-related classes.

    ``tiebreak[c]`` supplies (support, n_nouns) for deterministic ordering.
    """
    pool = sorted(
        scored,
        key=lambda c: (-scored[c], -tiebreak[c][0], -tiebreak[c][1], c),
    )
    chosen: list[str] = []
    while pool:
        best = pool[0]
        chosen.append(best)
        pool = [c for c in pool[1:] if not related(parents, best, c)]
    return chosen


def eval_ratios(triples, parents, senses, srs):
    """(precision, recall) as Fractions or None; srs = {(v, s, class), ...}."""
    positions = {(v, s) for v, s, _ in srs}

    def ok(t):
        return t[2] in senses and any(
            (v, s) == (t[0], t[1]) and c in noun_classes(parents, senses, t[2])
            for v, s, c in srs
        )

    hits = sum(1 for t in triples if ok(t))
    denom_p = sum(1 for t in triples if (t[0], t[1]) in positions)
    precision = Fraction(hits, denom_p) if denom_p else None
    recall = Fraction(hits, len(triples)) if triples else None
    return precision, recall


# -- bracketed trees -------------------------------------------------------


class OracleSyntaxError(ValueError):
    """Ill-formed bracketing, with the same message and offset as the package."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


def _tokenize(text: str):
    """Yield (offset, token) with token one of "(", ")" or an atom."""
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            yield i, ch
            i += 1
        else:
            start = i
            while i < n and not text[i].isspace() and text[i] not in "()":
                i += 1
            yield start, text[start:i]


def parse_bracketed(text: str) -> list[tuple]:
    """Character-at-a-time tree reader; nodes are plain
    ``(label, children, token)`` tuples, which compare equal to the
    package's nodes with the same fields."""
    trees: list[tuple] = []
    # Stack frames: [open-paren offset, label or None, children, leaf tokens].
    stack: list[list] = []
    for offset, tok in _tokenize(text):
        if tok == "(":
            stack.append([offset, None, [], []])
        elif tok == ")":
            if not stack:
                raise OracleSyntaxError("unbalanced parentheses: unexpected ')'", offset)
            open_at, label, children, atoms = stack.pop()
            if label is None:
                raise OracleSyntaxError("empty constituent", open_at)
            if atoms and children:
                raise OracleSyntaxError(
                    f"constituent {label!r} mixes tokens and sub-constituents", open_at
                )
            if len(atoms) > 1:
                raise OracleSyntaxError(f"leaf {label!r} has more than one token", open_at)
            if atoms:
                tree = (label, (), atoms[0])
            elif children:
                tree = (label, tuple(children), None)
            else:
                raise OracleSyntaxError("empty constituent", open_at)
            if stack:
                stack[-1][2].append(tree)
            else:
                trees.append(tree)
        else:
            if not stack:
                raise OracleSyntaxError(f"token {tok!r} outside any tree", offset)
            frame = stack[-1]
            if frame[1] is None:
                frame[1] = tok
            else:
                frame[3].append(tok)
    if stack:
        raise OracleSyntaxError("unbalanced parentheses: unclosed '('", len(text))
    return trees


# -- triple extraction -----------------------------------------------------

NON_NOUN_HEAD = "NonNounHead"
LEMMA_FAILURE = "LemmaFailure"


def _first(children, labels):
    for child in children:
        if child[0] in labels:
            return child
    return None


def _constituents(tree):
    """Constituents in preorder, ``tree`` included unless it is a leaf."""
    stack = [] if tree[2] is not None else [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in reversed(node[1]) if c[2] is None)


def extract_triples(tree, lemmatize, tags) -> list[tuple]:
    """``(verb, relation code, noun, discard reason or None)``
    per verb-complement pair of a ``(label, children, token)`` tree.

    ``lemmatize(form, pos)`` gives ``(lemma, failed)`` with ``pos`` one of
    "noun" and "verb"; ``tags`` has the fields of the package's tag set.
    Each clause (a clause label with a VP child) gives: the subject, the
    last NP sister before the first VP; the object, the first NP in the
    innermost VP (first VP children down); and each PP of that VP with a
    preposition leaf and an NP, unless the preposition lowercases to "0"
    or "1".  The verb is the innermost VP's rightmost verb-tagged leaf.
    """
    records = []
    for clause in _constituents(tree):
        label, children, _ = clause
        if label not in tags.clause_labels:
            continue
        vp = _first(children, tags.vp_labels)
        if vp is None:
            continue
        inner = vp
        while _first(inner[1], tags.vp_labels) is not None:
            inner = _first(inner[1], tags.vp_labels)
        verbs = [c for c in inner[1] if c[2] is not None and c[0] in tags.verb_tags]
        if not verbs:
            continue
        verb_lemma, verb_failed = lemmatize(verbs[-1][2], "verb")

        complements = []
        before = children[: children.index(vp)]
        subjects = [c for c in before if c[0] in tags.np_labels]
        if subjects:
            complements.append(("0", subjects[-1]))
        obj = _first(inner[1], tags.np_labels)
        if obj is not None:
            complements.append(("1", obj))
        for pp in inner[1]:
            if pp[0] not in tags.pp_labels:
                continue
            preps = [c for c in pp[1] if c[2] is not None and c[0] in tags.prep_tags]
            np = _first(pp[1], tags.np_labels)
            if preps and np is not None and preps[0][2].lower() not in ("0", "1"):
                complements.append((preps[0][2].lower(), np))

        for code, np in complements:
            heads = [c for c in np[1] if c[2] is not None and c[0] in tags.noun_tags]
            if not heads:
                node = np
                while node[2] is None:
                    node = node[1][-1]
                records.append((verb_lemma, code, node[2], NON_NOUN_HEAD))
                continue
            noun_lemma, noun_failed = lemmatize(heads[-1][2], "noun")
            reason = LEMMA_FAILURE if verb_failed or noun_failed else None
            records.append((verb_lemma, code, noun_lemma, reason))
    return records


def extract_corpus(trees, lemmatize, tags) -> list[tuple]:
    """``extract_triples`` of every tree, in order."""
    return [r for tree in trees for r in extract_triples(tree, lemmatize, tags)]
