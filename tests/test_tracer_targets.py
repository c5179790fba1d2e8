"""The benchmark tracer wraps package functions by name; every name it
wraps must still resolve, and its count hooks must still read the
arguments and results, or a refactor silently drops per-layer metrics."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import selrestr
from conftest import TOY_TRIPLES

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
RUNNER = TRACER.with_name("run.py")
SELFTEST = TRACER.with_name("selftest.py")
SRC_DIR = str(Path(selrestr.__file__).resolve().parent.parent)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
TARGETS = [(module, attr) for module, attr, *_ in tracer.SPANS + tracer.COUNTED]


def test_tables_are_not_empty():
    assert len(tracer.SPANS) > 0 and len(tracer.COUNTED) > 0


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}:{a}" for m, a in TARGETS])
def test_target_resolves_to_a_callable(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def _traced(tmp_path, *argv):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text(encoding="utf-8"))


def test_traced_toy_learn_and_eval(data_dir, tmp_path):
    srs = tmp_path / "srs.tsv"
    files = ["--taxonomy", str(data_dir / "toy_taxonomy.tsv"),
             "--lexicon", str(data_dir / "toy_lexicon.tsv")]
    learn = _traced(
        tmp_path, "learn", "--counts", str(data_dir / "toy_counts.tsv"), *files,
        "--threshold", "1", "--min-verb-support", "1", "--out", str(srs),
    )
    assert learn["missing"] == []
    counts = learn["counts"]
    # groups (drink, 0), (drink, 1), (sleep, 0) with 4 + 3 + 3 candidates
    assert counts["learner.groups"] == 3
    assert counts["learner.candidates"] == counts["stats.score_calls"] == 10
    assert counts["stats.unscorable"] == 0
    assert counts["learner.selected"] == 3
    assert counts["taxonomy.related_calls"] == 0

    evaluated = _traced(tmp_path, "eval", "--gold", str(data_dir / "toy_gold.tsv"),
                        "--srs", str(srs), *files)
    assert evaluated["missing"] == []
    assert evaluated["counts"]["evaluate.fulfills_calls"] > 0
    spans = {name for name, *_ in evaluated["spans"]}
    assert {"cli", "taxonomy.load", "evaluate.read", "evaluate.eval"} <= spans


def test_traced_toy_extract(data_dir, tmp_path):
    # mini.mrg is one share, so the extract_corpus that cli passes to
    # extract.extract_file runs in this process and its span is recorded.
    from selrestr.extract import LemmaTable, extract_corpus
    from selrestr.trees import read_trees

    lemmas = data_dir / "mini_lemmas.tsv"
    traced = _traced(tmp_path, "extract", "--corpus", str(data_dir / "mini.mrg"),
                     "--lemmas", str(lemmas), "--triples", str(tmp_path / "triples.tsv"))
    assert traced["missing"] == []
    assert "extract.extract" in {name for name, *_ in traced["spans"]}
    records = extract_corpus(
        read_trees(data_dir / "mini.mrg"), LemmaTable.from_text(lemmas.read_text(encoding="utf-8"))
    )
    assert traced["counts"]["extract.records"] == len(records) > 0


def test_traced_toy_learn_from_triples(data_dir, tmp_path):
    # learn --triples goes through read_triples and accumulate by name, so
    # the extract.read_triples and stats.count spans keep measuring them.
    triples = tmp_path / "toy_triples.tsv"
    triples.write_text("".join(f"{v}\t{s}\t{n}\n" for v, s, n in TOY_TRIPLES), encoding="utf-8")
    learn = _traced(
        tmp_path, "learn", "--triples", str(triples),
        "--taxonomy", str(data_dir / "toy_taxonomy.tsv"),
        "--lexicon", str(data_dir / "toy_lexicon.tsv"),
        "--threshold", "1", "--min-verb-support", "1", "--out", str(tmp_path / "srs.tsv"),
    )
    assert learn["missing"] == []
    spans = {name for name, *_ in learn["spans"]}
    assert {"extract.read_triples", "stats.count"} <= spans
    assert "stats.read_counts" not in spans
    assert learn["counts"]["learner.groups"] == 3


def test_benchmark_setup_code_runs(data_dir):
    # The set-up child of perfbench/run.py calls selrestr.cli by name; if
    # that call breaks, every set-up time is of a failing command.
    module = ast.parse(RUNNER.read_text(encoding="utf-8"))
    setup_code = next(
        ast.literal_eval(node.value)
        for node in module.body
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) == "SETUP_CODE"
    )
    proc = subprocess.run(
        [sys.executable, "-c", setup_code,
         str(data_dir / "toy_taxonomy.tsv"), str(data_dir / "toy_lexicon.tsv")],
        env=dict(os.environ, PYTHONPATH=SRC_DIR), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_selftest_passes():
    # The benchmark's own check at a tiny input size: every workload runs
    # traced and untraced, every metric is emitted and no command fails
    # its output checks (such as disjoint classes that meet the support
    # threshold), so a change that breaks a run fails the suite too.
    proc = subprocess.run(
        [sys.executable, str(SELFTEST)],
        cwd=SELFTEST.parent.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
