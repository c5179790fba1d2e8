"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single
``criterion N: PASS/FAIL`` verdict on the real stdout, so the lines
survive pytest's capture and show up in piped logs.  The assertion at
the end of each test carries the same condition as the printed verdict.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from io import StringIO

import oracle
from conftest import TOY_PARENTS, TOY_SENSES, TOY_TRIPLES, build_world
from helpers import nodes, score
from worlds import lexicon_text, make_world, taxonomy_text

from selrestr.evaluate import diagnostic_summary, evaluate_gold, read_gold, read_labels
from selrestr.extract import LEMMA_FAILURE, NON_NOUN_HEAD, LemmaTable, extract_corpus
from selrestr.learner import (
    LearnerConfig,
    candidate_space,
    learn_all,
    score_candidates,
    select_disjoint,
)
from selrestr.restrictions import format_restriction, read_restrictions
from selrestr.stats import EstimatorKind, ScoreKind, Scorer, accumulate, signed_g2
from selrestr.taxonomy import load_taxonomy
from selrestr.trees import read_trees
from selrestr.triples import SynRel, TripleRecord, write_discards, write_triples

RAW = EstimatorKind.RAW
SENSE = EstimatorKind.SENSE_CORRECTED
ASSOC = ScoreKind.ASSOC


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    # capture is file-descriptor level, so suspend it for the verdict line
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_criterion_1_demo_corpus_restrictions(data_dir, capsys):
    start = time.perf_counter()
    trees = read_trees(data_dir / "demo.mrg")
    lemmas = LemmaTable.from_text((data_dir / "demo_lemmas.tsv").read_text(encoding="utf-8"))
    records = [r for r in extract_corpus(trees, lemmas) if r.kept]
    taxonomy, lexicon = load_taxonomy(
        (data_dir / "demo_taxonomy.tsv").read_text(encoding="utf-8"),
        (data_dir / "demo_lexicon.tsv").read_text(encoding="utf-8"),
    )
    srs = learn_all(
        Scorer(accumulate(records), lexicon),
        LearnerConfig(threshold=2, min_verb_support=2),
    )
    elapsed = time.perf_counter() - start

    got = [(sr.verb, sr.rel.code, sr.class_id) for sr in srs]
    want = [("seek", "0", "person_individual"), ("seek", "1", "legal_instrument")]
    problems = []
    if len(trees) != 3:
        problems.append(f"expected 3 sentences, read {len(trees)}")
    if len(nodes(taxonomy)) != 12:
        problems.append(f"expected a 12-node taxonomy, got {len(nodes(taxonomy))}")
    if got != want:
        problems.append(f"restrictions {got} != {want}")
    if elapsed >= 1.0:
        problems.append(f"pipeline took {elapsed:.3f}s, limit is 1s")
    _verdict(
        capsys,
        1,
        not problems,
        f"demo corpus yields exactly {want} in {elapsed * 1000:.0f}ms"
        if not problems
        else "; ".join(problems),
    )
    assert not problems, problems


def test_criterion_2_toy_corpus_association_oracle(toy_scorer, capsys):
    s0 = SynRel("0")
    problems = []
    for cls, want in (("animal", 0.415037), ("dog", 0.276692)):
        got = score(toy_scorer, ASSOC, "drink", s0, cls)
        ref = oracle.assoc(TOY_TRIPLES, TOY_PARENTS, TOY_SENSES, "drink", "0", cls)
        if abs(got - want) > 1e-6:
            problems.append(f"assoc(drink, 0, {cls}) = {got!r}, want {want} +- 1e-6")
        if abs(got - ref) > 1e-12:
            problems.append(f"assoc(drink, 0, {cls}) = {got!r} vs enumerator {ref!r}")
    top = score(toy_scorer, ASSOC, "drink", s0, "entity")
    if top != 0.0:
        problems.append(f"assoc(drink, 0, entity) = {top!r}, want exactly 0.0")

    cfg = LearnerConfig(threshold=1, min_verb_support=1)
    scored = score_candidates(
        toy_scorer, "drink", s0, candidate_space(toy_scorer, "drink", s0, cfg), cfg
    )
    chosen = [c.class_id for c in select_disjoint(scored, toy_scorer.taxonomy)]
    if chosen != ["animal"]:
        problems.append(f"select_disjoint chose {chosen}, want ['animal']")
    _verdict(
        capsys,
        2,
        not problems,
        "toy associations at 1e-6, entity exactly 0.0, selection = [animal]"
        if not problems
        else "; ".join(problems),
    )
    assert not problems, problems


def test_criterion_3_likelihood_ratio_oracle(capsys):
    # the tables [[3, 0], [0, 1]] and [[1, 1], [1, 1]]
    skewed = signed_g2(3, 3, 3, 4)
    flat = signed_g2(1, 2, 2, 4)
    ref = oracle.g2(3, 0, 0, 1)
    problems = []
    if abs(skewed - 4.498681) > 1e-5:
        problems.append(f"[[3,0],[0,1]] scored {skewed!r}, want 4.498681 +- 1e-5")
    if abs(skewed - ref) > 1e-12:
        problems.append(f"[[3,0],[0,1]] scored {skewed!r} vs enumerator {ref!r}")
    if flat != 0.0:
        problems.append(f"[[1,1],[1,1]] scored {flat!r}, want exactly 0.0")
    _verdict(
        capsys,
        3,
        not problems,
        f"[[3,0],[0,1]] -> {skewed:.6f}, flat table -> 0.0"
        if not problems
        else "; ".join(problems),
    )
    assert not problems, problems


def test_criterion_4_probability_model_properties(capsys):
    n_worlds = 1000
    problems = []
    enum_checks = 0
    for seed in range(n_worlds):
        parents, senses, triples = make_world(random.Random(seed))
        model = build_world(parents, senses, triples)
        table = model.table
        tag = f"world {seed}"

        # marginals must recount the raw triple list exactly
        pos_counts = Counter(s for _, s, _ in triples)
        vs_counts = Counter((v, s) for v, s, _ in triples)
        if table.grand_total != len(triples):
            problems.append(f"{tag}: grand total {table.grand_total} != {len(triples)}")
        if {p.code for p in table.position_total} != set(pos_counts):
            problems.append(f"{tag}: position set mismatch")
        for code, n in pos_counts.items():
            if table.total(SynRel(code)) != n:
                problems.append(f"{tag}: total({code}) != {n}")
        for (v, code), n in vs_counts.items():
            if table.vs_total(v, SynRel(code)) != n:
                problems.append(f"{tag}: vs_total({v}, {code}) != {n}")

        # a hypernym can never have fewer occurrences than its hyponym
        groups = sorted(table.verb_positions(), key=lambda vs: -table.vs_total(*vs))[:2]
        for v, s in groups:
            for est in (RAW, SENSE):
                joint = model.group_sums(v, s, est).joint
                for child, ps in parents.items():
                    child_n = joint.get(child, 0)
                    for parent in ps:
                        if joint.get(parent, 0) < child_n:
                            problems.append(
                                f"{tag}: count({parent}) < count({child})"
                                f" at ({v}, {s.code}, {est.value})"
                            )

        # sense classes are leaves, so they partition sense-corrected mass
        leaves = sorted(c for c in parents if c.startswith("l"))
        for s in table.position_total:
            scaled = sum(
                model.group_sums(v, at, SENSE).joint.get(leaf, 0)
                for v, at in table.verb_positions()
                if at == s
                for leaf in leaves
            )
            mass = Fraction(scaled, model.sense_scale)
            if mass != table.total(s):
                problems.append(f"{tag}: leaf mass {mass} != {table.total(s)} at {s.code}")

        # a position seen with a single verb is exactly independent of it
        v0 = triples[0][0]
        solo = Scorer(
            accumulate(
                TripleRecord(v, SynRel(s), n) for v, s, n in triples if v == v0
            ),
            model.lexicon,
        )
        for v, s in solo.table.verb_positions():
            classes = list(solo.group_sums(v, s, RAW).joint)
            for cls, a in zip(classes, solo.scores(ASSOC, v, s, classes)):
                if a != 0.0:
                    problems.append(
                        f"{tag}: single-verb assoc({v}, {s.code}, {cls}) = {a!r}"
                    )

        # spot-check both estimators against the brute-force enumerator
        pick = random.Random(seed + 7_000_000)
        for est, corrected in ((RAW, False), (SENSE, True)):
            v, s = pick.choice(table.verb_positions())
            supported = sorted(model.group_sums(v, s, est).joint)
            if not supported:
                continue
            cls = pick.choice(supported)
            got = score(model, ASSOC, v, s, cls, est)
            ref = oracle.assoc(triples, parents, senses, v, s.code, cls, corrected)
            enum_checks += 1
            if ref is None or abs(got - ref) > 1e-12 * max(abs(got), abs(ref), 1.0):
                problems.append(
                    f"{tag}: assoc({v}, {s.code}, {cls}, {est.value})"
                    f" = {got!r} vs enumerator {ref!r}"
                )
        if len(problems) > 8:
            break
    _verdict(
        capsys,
        4,
        not problems,
        f"{n_worlds} random worlds, {enum_checks} enumerator comparisons at 1e-12"
        if not problems
        else f"{len(problems)} violations; first: {problems[0]}",
    )
    assert not problems, problems[:8]


def test_criterion_5_selection_properties(capsys):
    cfg = LearnerConfig(threshold=1, min_verb_support=1)
    problems = []
    runs = 0
    for seed in range(300):
        rng = random.Random(200_000 + seed)
        parents, senses, triples = make_world(rng)
        model = build_world(parents, senses, triples)
        taxonomy = model.taxonomy
        groups = sorted(
            model.table.verb_positions(), key=lambda vs: -model.table.vs_total(*vs)
        )[:2]
        for v, s in groups:
            scored = score_candidates(
                model, v, s, candidate_space(model, v, s, cfg), cfg
            )
            chosen = select_disjoint(scored, taxonomy)
            runs += 1
            tag = f"world {seed} ({v}, {s.code})"
            for i, a in enumerate(chosen):
                for b in chosen[i + 1 :]:
                    if taxonomy.related(a.class_id, b.class_id):
                        problems.append(f"{tag}: {a.class_id} / {b.class_id} overlap")
            for _ in range(3):
                shuffled = scored[:]
                rng.shuffle(shuffled)
                if select_disjoint(shuffled, taxonomy) != chosen:
                    problems.append(f"{tag}: input order changed the selection")
                    break
            want = [c.class_id for c in chosen]
            # powers of two rescale float scores exactly
            for k in (0.5, 2.0, 8.0):
                rescaled = [c._replace(score=c.score * k) for c in scored]
                got = [c.class_id for c in select_disjoint(rescaled, taxonomy)]
                if got != want:
                    problems.append(f"{tag}: scaling scores by {k} changed the selection")
                    break
        if len(problems) > 8:
            break
    if runs < 300:
        problems.append(f"only {runs} selection runs, want >= 300")
    _verdict(
        capsys,
        5,
        not problems,
        f"{runs} selections disjoint, order-invariant and scale-invariant"
        if not problems
        else f"{len(problems)} violations; first: {problems[0]}",
    )
    assert not problems, problems[:8]


def test_criterion_6_extraction_conservation(data_dir, test_data_dir, capsys):
    problems = []
    tallies = {}
    for corpus, lemma_file in (("mini", "mini_lemmas.tsv"), ("demo", "demo_lemmas.tsv")):
        trees = read_trees(data_dir / f"{corpus}.mrg")
        table = LemmaTable.from_text((data_dir / lemma_file).read_text(encoding="utf-8"))
        records = extract_corpus(trees, table)
        kept = sum(1 for r in records if r.kept)
        heads = sum(1 for r in records if r.discard_reason == NON_NOUN_HEAD)
        lemmas = sum(1 for r in records if r.discard_reason == LEMMA_FAILURE)
        tallies[corpus] = f"{kept}+{heads}+{lemmas}={len(records)}"
        if kept + heads + lemmas != len(records):
            problems.append(
                f"{corpus}: kept {kept} + heads {heads} + lemmas {lemmas}"
                f" != {len(records)} raw"
            )
        if corpus == "mini":
            if len(trees) < 30:
                problems.append(f"mini corpus has only {len(trees)} sentences")
            out, side = StringIO(), StringIO()
            write_triples((r for r in records if r.kept), out)
            write_discards((r for r in records if not r.kept), side)
            if out.getvalue().encode() != (test_data_dir / "mini_triples.tsv").read_bytes():
                problems.append("mini triples differ from the annotated fixture")
            if side.getvalue().encode() != (test_data_dir / "mini_discards.tsv").read_bytes():
                problems.append("mini discard sidecar differs from the annotated fixture")
    _verdict(
        capsys,
        6,
        not problems,
        f"conservation holds (mini {tallies['mini']}, demo {tallies['demo']}),"
        " mini outputs byte-identical"
        if not problems
        else "; ".join(problems),
    )
    assert not problems, problems


def test_criterion_7_eval_formulas(data_dir, test_data_dir, capsys):
    _, lexicon = load_taxonomy(
        (data_dir / "toy_taxonomy.tsv").read_text(encoding="utf-8"),
        (data_dir / "toy_lexicon.tsv").read_text(encoding="utf-8"),
    )
    gold = read_gold((data_dir / "toy_gold.tsv").read_text(encoding="utf-8"))
    srs = read_restrictions((data_dir / "toy_srs.tsv").read_text(encoding="utf-8"))
    report = evaluate_gold(gold, srs, lexicon)
    problems = []
    if report.precision != Fraction(1, 2):
        problems.append(f"precision {report.precision!r} != 1/2")
    if report.recall != Fraction(1, 3):
        problems.append(f"recall {report.recall!r} != 1/3")

    labels = read_labels(
        (test_data_dir / "diagnostic_labels.tsv").read_text(encoding="utf-8")
    )
    if any(count is None for *_ignored, count in labels):
        problems.append("label fixture is missing occurrence counts")
    rows = {
        row.label: row
        for row in diagnostic_summary(
            [((v, s, c), label, count) for v, s, c, label, count in labels]
        )
    }
    want = {
        "Ok": (45, Decimal("18.8"), 2099, Decimal("39.4")),
        "Senses": (176, Decimal("73.3"), 2740, Decimal("51.4")),
        "Total": (240, Decimal("100.0"), 5331, Decimal("100.0")),
    }
    for label, expected in want.items():
        row = rows[label]
        got = (row.classes, row.class_pct, row.occurrences, row.occurrence_pct)
        if got != expected:
            problems.append(f"{label} row {got} != {expected}")
    _verdict(
        capsys,
        7,
        not problems,
        "precision 1/2 and recall 1/3 exact, diagnostic rows reproduced"
        if not problems
        else "; ".join(problems),
    )
    assert not problems, problems


def _scale_world():
    """5000-class taxonomy (5-ary tree), 3000 nouns, 200k triples."""
    rng = random.Random(20260825)
    ids = [f"c{k:04d}" for k in range(5000)]
    parents: dict[str, set[str]] = {ids[0]: set()}
    for k in range(1, len(ids)):
        parents[ids[k]] = {ids[(k - 1) // 5]}
    leaves = ids[1000:]
    senses = {
        f"n{k}": frozenset(rng.sample(leaves, rng.randint(1, 3))) for k in range(3000)
    }
    nouns = sorted(senses)
    verbs = [f"v{k}" for k in range(40)]
    rels = ("0", "1", "with")
    triples = [
        (rng.choice(verbs), rng.choice(rels), rng.choice(nouns))
        for _ in range(200_000)
    ]
    return parents, senses, triples


def test_criterion_8_scale_and_worker_determinism(capsys):
    parents, senses, triples = _scale_world()
    _, lexicon = load_taxonomy(taxonomy_text(parents), lexicon_text(senses))
    records = [TripleRecord(v, SynRel(s), n) for v, s, n in triples]
    cfg = LearnerConfig()

    start = time.perf_counter()
    table = accumulate(records)
    first = learn_all(Scorer(table, lexicon), cfg)
    elapsed = time.perf_counter() - start
    second = learn_all(Scorer(table, lexicon), cfg)

    problems = []
    if elapsed >= 60.0:
        problems.append(f"learning took {elapsed:.1f}s, limit is 60s")
    if not first:
        problems.append("no restrictions learned")
    if [format_restriction(r) for r in first] != [format_restriction(r) for r in second]:
        problems.append("a second run from a fresh Scorer differs from the first")
    _verdict(
        capsys,
        8,
        not problems,
        f"200000 triples / {len(parents)} classes -> {len(first)} restrictions"
        f" in {elapsed:.1f}s, identical on a second run"
        if not problems
        else "; ".join(problems),
    )
    assert not problems, problems
