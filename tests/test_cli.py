"""End-to-end command tests driven through run(argv) in process.

Every invocation works in tmp_path; goldens for learned restrictions
were derived by hand from the toy counts before being frozen.
"""

import ast
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import selrestr
from selrestr import cli
from selrestr.cli import run
from test_tsv import texts

SRC_DIR = str(Path(selrestr.__file__).resolve().parent.parent)

TOY_BODY = (
    "drink\t0\tanimal\t0.415037\t2\t3\n"
    "drink\t1\tentity\t0.000000\t1\t3\n"
    "sleep\t0\tman\t2.000000\t1\t1\n"
)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def toy_learn_argv(data_dir, out, *extra):
    return [
        "learn",
        "--counts", str(data_dir / "toy_counts.tsv"),
        "--taxonomy", str(data_dir / "toy_taxonomy.tsv"),
        "--lexicon", str(data_dir / "toy_lexicon.tsv"),
        "--threshold", "1",
        "--min-verb-support", "1",
        "--out", str(out),
        *extra,
    ]


class TestExtractCommand:
    def test_mini_corpus(self, data_dir, test_data_dir, tmp_path, capsys):
        triples = tmp_path / "triples.tsv"
        rc = run(
            [
                "extract",
                "--corpus", str(data_dir / "mini.mrg"),
                "--lemmas", str(data_dir / "mini_lemmas.tsv"),
                "--triples", str(triples),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out == (
            "raw extractions  61\n"
            "non-noun heads   6 (9.8%)\n"
            "lemma failures   3 (4.9%)\n"
            "kept             52 (85.2%)\n"
        )
        expected = (test_data_dir / "mini_triples.tsv").read_bytes()
        assert triples.read_bytes() == expected
        sidecar = tmp_path / "triples.tsv.discards"
        assert sidecar.read_bytes() == (test_data_dir / "mini_discards.tsv").read_bytes()

    def test_explicit_discards_path(self, data_dir, tmp_path, capsys):
        triples = tmp_path / "t.tsv"
        lost = tmp_path / "lost.tsv"
        rc = run(
            [
                "extract",
                "--corpus", str(data_dir / "mini.mrg"),
                "--lemmas", str(data_dir / "mini_lemmas.tsv"),
                "--triples", str(triples),
                "--discards", str(lost),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert lost.exists()
        assert not (tmp_path / "t.tsv.discards").exists()

    def test_lemma_that_would_not_read_back_exits_1(self, tmp_path, capsys):
        # " run" and "#sit" would be written as kept triples that the
        # triples reader trims or skips as a comment.
        corpus = tmp_path / "c.mrg"
        corpus.write_text("(S (NP (NNS dogs)) (VP (VBD ran)))\n", encoding="utf-8")
        lemmas = tmp_path / "lemmas.tsv"
        lemmas.write_text("dogs\tnoun\tdog\nran\tverb\t run\n", encoding="utf-8")
        triples = tmp_path / "t.tsv"
        argv = ["extract", "--corpus", str(corpus), "--lemmas", str(lemmas),
                "--triples", str(triples)]
        assert run(argv) == 1
        assert "lemma table line 2: bad lemma ' run'" in capsys.readouterr().err
        assert not triples.exists()

    def test_a_five_thousand_letter_noun_is_lemmatized(self, tmp_path, capsys):
        # The suffix rules walk a long form without recursion; "s" x n is
        # irreducible exactly when n is odd.
        corpus = tmp_path / "c.mrg"
        corpus.write_text(f"(S (NP (NN {'s' * 5000})) (VP (VBD ran)))\n", encoding="utf-8")
        triples = tmp_path / "t.tsv"
        assert run(["extract", "--corpus", str(corpus), "--triples", str(triples)]) == 0
        assert "kept             1 (100.0%)" in capsys.readouterr().out
        assert triples.read_text(encoding="utf-8") == f"ran\t0\t{'s' * 4999}\n"

    def test_missing_options(self, capsys):
        rc = run(["extract", "--corpus", "x.mrg"])
        assert rc == 1
        assert "--triples" in capsys.readouterr().err

    def test_missing_corpus_file(self, tmp_path, capsys):
        rc = run(
            [
                "extract",
                "--corpus", str(tmp_path / "nope.mrg"),
                "--triples", str(tmp_path / "t.tsv"),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_discards_path_is_a_directory(self, data_dir, tmp_path, capsys):
        # Neither output is moved into place until both are complete.
        (tmp_path / "sidecar").mkdir()
        rc = run(
            [
                "extract",
                "--corpus", str(data_dir / "mini.mrg"),
                "--triples", str(tmp_path / "t.tsv"),
                "--discards", str(tmp_path / "sidecar"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 21] Is a directory: '{tmp_path / 'sidecar'}'\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sidecar"]

    def test_missing_output_directory_names_the_output(self, data_dir, tmp_path, capsys):
        out = tmp_path / "nodir" / "t.tsv"
        rc = run(["extract", "--corpus", str(data_dir / "mini.mrg"), "--triples", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"

    def test_outputs_replace_old_files_and_leave_no_temps(self, data_dir, tmp_path, capsys):
        triples = tmp_path / "t.tsv"
        triples.write_text("stale\n", encoding="utf-8")
        argv = ["extract", "--corpus", str(data_dir / "demo.mrg"), "--triples", str(triples)]
        assert run(argv) == 0
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.tsv", "t.tsv.discards"]
        assert triples.read_text(encoding="utf-8").startswith("seek\t0\t")

    @pytest.mark.parametrize("discards", ["out.tsv", "./out.tsv"])
    def test_two_outputs_naming_one_file_exit_1(
        self, data_dir, tmp_path, monkeypatch, capsys, discards
    ):
        # The discards used to replace the triples silently, with status 0.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out.tsv").write_text("old\n", encoding="utf-8")
        argv = ["extract", "--corpus", str(data_dir / "demo.mrg"),
                "--triples", "out.tsv", "--discards", discards]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {discards}: two outputs name the same file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.tsv"]
        assert (tmp_path / "out.tsv").read_text(encoding="utf-8") == "old\n"

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--triples", "corpus.mrg"], "corpus.mrg"),
            (["--triples", "t.tsv", "--discards", "./corpus.mrg"], "./corpus.mrg"),
            (["--lemmas", "lemmas.tsv", "--triples", "lemmas.tsv"], "lemmas.tsv"),
            (["--config", "cfg.json", "--triples", "cfg.json"], "cfg.json"),
        ],
        ids=["triples-corpus", "discards-corpus", "triples-lemmas", "triples-config"],
    )
    def test_output_naming_an_input_exits_1(
        self, data_dir, tmp_path, monkeypatch, capsys, flags, named
    ):
        # The output used to replace the input it names, with status 0.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "corpus.mrg").write_bytes((data_dir / "demo.mrg").read_bytes())
        (tmp_path / "lemmas.tsv").write_bytes((data_dir / "demo_lemmas.tsv").read_bytes())
        (tmp_path / "cfg.json").write_text('{"corpus": "corpus.mrg"}', encoding="utf-8")
        before = _snapshot(tmp_path)
        assert run(["extract", "--corpus", "corpus.mrg", *flags]) == 1
        assert capsys.readouterr().err == f"error: {named}: an output names an input file\n"
        assert _snapshot(tmp_path) == before

    def test_deep_tree_extracts_without_traceback(self, tmp_path):
        depth = 5000
        corpus = tmp_path / "deep.mrg"
        corpus.write_text(
            "(S " + "(NP " * depth + "(NN dog)" + ")" * depth + " (VP (VBZ barks)))\n",
            encoding="utf-8",
        )
        triples = tmp_path / "t.tsv"
        proc = subprocess.run(
            [sys.executable, "-m", "selrestr", "extract",
             "--corpus", str(corpus), "--triples", str(triples)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC_DIR},
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout.startswith("raw extractions  1\n")
        assert triples.read_text(encoding="utf-8") == ""
        assert (tmp_path / "t.tsv.discards").read_text(encoding="utf-8") == (
            "bark\t0\tdog\tNonNounHead\n"
        )

    def test_demo_corpus_all_kept(self, data_dir, tmp_path, capsys):
        triples = tmp_path / "demo.tsv"
        rc = run(
            [
                "extract",
                "--corpus", str(data_dir / "demo.mrg"),
                "--lemmas", str(data_dir / "demo_lemmas.tsv"),
                "--triples", str(triples),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("raw extractions  8\n")
        lines = triples.read_text(encoding="utf-8").splitlines()
        assert lines == [
            "seek\t0\tprosecutor",
            "seek\t1\tindictment",
            "seek\ton\tcharge",
            "seek\t0\tbuyer",
            "seek\t1\tassurance",
            "seek\t0\tlawmaker",
            "seek\t1\tlegislation",
            "limit\t1\tpolicy",
        ]


class TestLearnCommand:
    def test_toy_counts_golden(self, data_dir, tmp_path, capsys):
        out = tmp_path / "srs.tsv"
        rc = run(toy_learn_argv(data_dir, out))
        assert rc == 0
        assert capsys.readouterr().out == "3 restrictions across 3 verb positions\n"
        text = out.read_text(encoding="utf-8")
        header, body = [], []
        for line in text.splitlines(keepends=True):
            (header if line.startswith("#") else body).append(line)
        assert "".join(body) == TOY_BODY
        assert header[0] == "# tool=selrestr 0.1.0\n"
        fields = dict(h[2:].rstrip("\n").split("=", 1) for h in header)
        assert fields["scorer"] == "assoc"
        assert fields["estimator"] == "raw"
        assert fields["threshold"] == "1"
        assert fields["min_verb_support"] == "1"
        assert fields["keep_nonpositive"] == "true"
        assert fields["input_sha256"] == sha(data_dir / "toy_counts.tsv")
        assert fields["taxonomy_sha256"] == sha(data_dir / "toy_taxonomy.tsv")
        assert fields["lexicon_sha256"] == sha(data_dir / "toy_lexicon.tsv")

    def test_triples_input_equivalent(self, data_dir, tmp_path, capsys):
        triples = tmp_path / "triples.tsv"
        rows = (
            ["drink\t0\tdog"] * 2
            + ["drink\t0\tcat"]
            + ["drink\t1\twater"] * 3
            + ["sleep\t0\tman"]
        )
        triples.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "srs.tsv"
        rc = run(
            [
                "learn",
                "--triples", str(triples),
                "--taxonomy", str(data_dir / "toy_taxonomy.tsv"),
                "--lexicon", str(data_dir / "toy_lexicon.tsv"),
                "--threshold", "1",
                "--min-verb-support", "1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        body = [
            l for l in out.read_text(encoding="utf-8").splitlines(keepends=True)
            if not l.startswith("#")
        ]
        assert "".join(body) == TOY_BODY

    def test_header_digest_is_of_the_bytes_parsed(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        # CRLF line ends: the digest is of the raw bytes, which are read
        # exactly once, and the parse is the same as with LF.
        counts = tmp_path / "counts.tsv"
        raw = (data_dir / "toy_counts.tsv").read_bytes().replace(b"\n", b"\r\n")
        counts.write_bytes(raw)
        reads = []
        real_read_bytes, real_read_text = Path.read_bytes, Path.read_text

        def read_bytes(self):
            reads.append(self)
            return real_read_bytes(self)

        def read_text(self, *args, **kwargs):
            reads.append(self)
            return real_read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_bytes", read_bytes)
        monkeypatch.setattr(Path, "read_text", read_text)
        argv = toy_learn_argv(data_dir, tmp_path / "srs.tsv")
        argv[argv.index("--counts") + 1] = str(counts)
        assert run(argv) == 0
        monkeypatch.undo()
        capsys.readouterr()
        assert reads.count(counts) == 1
        text = (tmp_path / "srs.tsv").read_text(encoding="utf-8")
        assert f"# input_sha256={hashlib.sha256(raw).hexdigest()}\n" in text
        body = [l for l in text.splitlines(keepends=True) if not l.startswith("#")]
        assert "".join(body) == TOY_BODY

    @pytest.mark.parametrize("flag", ["--counts", "--triples"])
    def test_non_utf8_input_exits_1(self, data_dir, tmp_path, capsys, flag):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"drink\t0\tdog\xff\t1\n")
        argv = [
            "learn", flag, str(bad),
            "--taxonomy", str(data_dir / "toy_taxonomy.tsv"),
            "--lexicon", str(data_dir / "toy_lexicon.tsv"),
            "--out", str(tmp_path / "srs.tsv"),
        ]
        assert run(argv) == 1
        assert "utf-8" in capsys.readouterr().err
        assert not (tmp_path / "srs.tsv").exists()

    def test_runs_are_byte_identical(self, data_dir, tmp_path, capsys):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert run(toy_learn_argv(data_dir, a)) == 0
        assert run(toy_learn_argv(data_dir, b)) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_scorer_and_estimator_flags(self, data_dir, tmp_path, capsys):
        out = tmp_path / "srs.tsv"
        rc = run(toy_learn_argv(data_dir, out, "--scorer", "g2", "--estimator", "sense"))
        assert rc == 0
        capsys.readouterr()
        text = out.read_text(encoding="utf-8")
        assert "# scorer=g2\n" in text
        assert "# estimator=sense\n" in text

    def test_keep_nonpositive_flag(self, data_dir, tmp_path, capsys):
        out = tmp_path / "srs.tsv"
        rc = run(toy_learn_argv(data_dir, out, "--no-keep-nonpositive"))
        assert rc == 0
        capsys.readouterr()
        text = out.read_text(encoding="utf-8")
        assert "# keep_nonpositive=false\n" in text
        body = [l for l in text.splitlines() if not l.startswith("#")]
        # the all-zero (drink, object) group disappears entirely
        assert [l.split("\t")[:2] for l in body] == [["drink", "0"], ["sleep", "0"]]

    def test_requires_exactly_one_input(self, data_dir, tmp_path, capsys):
        base = toy_learn_argv(data_dir, tmp_path / "o.tsv")
        rc = run(base + ["--triples", str(tmp_path / "t.tsv")])
        assert rc == 1
        assert "exactly one of --triples and --counts" in capsys.readouterr().err
        rc = run(
            [
                "learn",
                "--taxonomy", str(data_dir / "toy_taxonomy.tsv"),
                "--lexicon", str(data_dir / "toy_lexicon.tsv"),
                "--out", str(tmp_path / "o.tsv"),
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize("option", ["--counts", "--taxonomy", "--lexicon"])
    def test_out_naming_an_input_exits_1(self, data_dir, tmp_path, monkeypatch, capsys, option):
        # learn --counts c.tsv --out c.tsv used to replace its counts, with status 0.
        monkeypatch.chdir(tmp_path)
        for name in ("counts", "taxonomy", "lexicon"):
            (tmp_path / f"{name}.tsv").write_bytes((data_dir / f"toy_{name}.tsv").read_bytes())
        before = _snapshot(tmp_path)
        named = option[2:] + ".tsv"
        argv = ["learn", "--counts", "counts.tsv", "--taxonomy", "taxonomy.tsv",
                "--lexicon", "lexicon.tsv", "--threshold", "1", "--out", named]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {named}: an output names an input file\n"
        assert _snapshot(tmp_path) == before

    def test_out_is_a_directory(self, data_dir, tmp_path, capsys):
        (tmp_path / "srs").mkdir()
        assert run(toy_learn_argv(data_dir, tmp_path / "srs")) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["srs"]
        assert list((tmp_path / "srs").iterdir()) == []


class TestConfigFile:
    def test_config_supplies_defaults(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold": 1, "min_verb_support": 1}))
        out = tmp_path / "srs.tsv"
        rc = run(
            [
                "learn",
                "--counts", str(data_dir / "toy_counts.tsv"),
                "--taxonomy", str(data_dir / "toy_taxonomy.tsv"),
                "--lexicon", str(data_dir / "toy_lexicon.tsv"),
                "--out", str(out),
                "--config", str(cfg),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == "3 restrictions across 3 verb positions\n"

    def test_flags_override_config(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold": 5, "min_verb_support": 1}))
        out = tmp_path / "srs.tsv"
        argv = [
            "learn",
            "--counts", str(data_dir / "toy_counts.tsv"),
            "--taxonomy", str(data_dir / "toy_taxonomy.tsv"),
            "--lexicon", str(data_dir / "toy_lexicon.tsv"),
            "--out", str(out),
            "--config", str(cfg),
        ]
        assert run(argv) == 0
        assert capsys.readouterr().out == "0 restrictions across 0 verb positions\n"
        assert run(argv + ["--threshold", "1"]) == 0
        assert capsys.readouterr().out == "3 restrictions across 3 verb positions\n"

    def test_unknown_config_key(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"thresold": 1}))
        rc = run(toy_learn_argv(data_dir, tmp_path / "o.tsv", "--config", str(cfg)))
        assert rc == 1
        assert "unknown keys thresold" in capsys.readouterr().err

    def test_workers_is_not_an_option(self, data_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run(toy_learn_argv(data_dir, tmp_path / "o.tsv", "--workers", "2"))
        assert err.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": 2}))
        capsys.readouterr()
        assert run(toy_learn_argv(data_dir, tmp_path / "o.tsv", "--config", str(cfg))) == 1
        assert "unknown keys workers" in capsys.readouterr().err
        assert not (tmp_path / "o.tsv").exists()

    def test_wrong_config_value_type(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold": "high", "min_verb_support": 1}))
        rc = run(
            [
                "learn",
                "--counts", str(data_dir / "toy_counts.tsv"),
                "--taxonomy", str(data_dir / "toy_taxonomy.tsv"),
                "--lexicon", str(data_dir / "toy_lexicon.tsv"),
                "--out", str(tmp_path / "o.tsv"),
                "--config", str(cfg),
            ]
        )
        assert rc == 1
        assert "threshold must be an integer" in capsys.readouterr().err

    def test_config_must_be_object(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        rc = run(toy_learn_argv(data_dir, tmp_path / "o.tsv", "--config", str(cfg)))
        assert rc == 1
        assert "top level must be a JSON object" in capsys.readouterr().err


class TestEvalCommand:
    def eval_argv(self, data_dir, *extra):
        return [
            "eval",
            "--gold", str(data_dir / "toy_gold.tsv"),
            "--srs", str(data_dir / "toy_srs.tsv"),
            "--taxonomy", str(data_dir / "toy_taxonomy.tsv"),
            "--lexicon", str(data_dir / "toy_lexicon.tsv"),
            *extra,
        ]

    def test_text_report(self, data_dir, capsys):
        assert run(self.eval_argv(data_dir)) == 0
        out = capsys.readouterr().out
        assert "precision        0.500 (1/2)\n" in out
        assert "recall           0.333 (1/3)\n" in out
        assert "gold triples     5\n" in out

    def test_json_report(self, data_dir, capsys):
        assert run(self.eval_argv(data_dir, "--format", "json")) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["precision"]["numerator"] == 1
        assert data["recall"]["denominator"] == 3
        assert "diagnostics" not in data

    def test_labels_add_diagnostics(self, data_dir, capsys):
        argv = self.eval_argv(
            data_dir, "--labels", str(data_dir / "toy_labels.tsv"), "--format", "json"
        )
        assert run(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert [row["label"] for row in data["diagnostics"]] == [
            "Ok", "UpAbs", "DownAbs", "Senses", "Noise", "Total",
        ]

    def test_bad_format_rejected_by_argparse(self, data_dir, capsys):
        with pytest.raises(SystemExit) as err:
            run(self.eval_argv(data_dir, "--format", "yaml"))
        assert err.value.code == 2
        capsys.readouterr()

    def test_bad_format_from_config(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "yaml"}))
        rc = run(self.eval_argv(data_dir, "--config", str(cfg)))
        assert rc == 1
        assert "format must be text or json" in capsys.readouterr().err

    def test_learned_header_with_matching_files(self, data_dir, tmp_path, capsys):
        srs = tmp_path / "srs.tsv"
        assert run(toy_learn_argv(data_dir, srs)) == 0
        assert run(self.eval_argv(data_dir, "--srs", str(srs))) == 0
        assert "precision        0.667 (2/3)\n" in capsys.readouterr().out

    @pytest.mark.parametrize("option", ["taxonomy", "lexicon"])
    def test_header_digest_mismatch_exits_1(self, data_dir, tmp_path, capsys, option):
        srs = tmp_path / "srs.tsv"
        assert run(toy_learn_argv(data_dir, srs)) == 0
        other = tmp_path / f"{option}.tsv"
        other.write_bytes((data_dir / f"toy_{option}.tsv").read_bytes() + b"# edited\n")
        capsys.readouterr()
        rc = run(self.eval_argv(data_dir, "--srs", str(srs), f"--{option}", str(other)))
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: restrictions file {srs}: {option}_sha256 does not match"
            f" --{option} {other}\n"
        )

    def test_header_without_digests_accepted(self, data_dir, tmp_path, capsys):
        srs = tmp_path / "srs.tsv"
        srs.write_text("# tool=selrestr 0.1.0\n# scorer=assoc\n" + TOY_BODY)
        assert run(self.eval_argv(data_dir, "--srs", str(srs))) == 0
        assert "recall           0.667 (2/3)\n" in capsys.readouterr().out

    def test_bad_restrictions_line_exits_1(self, data_dir, tmp_path, capsys):
        srs = tmp_path / "srs.tsv"
        srs.write_text(TOY_BODY + "drink\t0\tdog\tnan\t1\t2\n")
        assert run(self.eval_argv(data_dir, "--srs", str(srs))) == 1
        assert capsys.readouterr().err == (
            f"error: {srs}: restrictions line 4: score must be finite, got 'nan'\n"
        )

    def test_missing_required(self, capsys):
        rc = run(["eval", "--format", "json"])
        assert rc == 1
        err = capsys.readouterr().err
        for flag in ("--gold", "--srs", "--taxonomy", "--lexicon"):
            assert flag in err


class TestReportCommand:
    def test_plain_table(self, data_dir, tmp_path, capsys):
        out = tmp_path / "srs.tsv"
        assert run(toy_learn_argv(data_dir, out)) == 0
        capsys.readouterr()
        assert run(["report", "--srs", str(out)]) == 0
        assert capsys.readouterr().out == (
            "verb   rel  class      score  nouns  support  label\n"
            "drink  0    animal  0.415037      2        3  -\n"
            "drink  1    entity  0.000000      1        3  -\n"
            "sleep  0    man     2.000000      1        1  -\n"
        )

    def test_labels_column(self, data_dir, tmp_path, capsys):
        out = tmp_path / "srs.tsv"
        assert run(toy_learn_argv(data_dir, out)) == 0
        capsys.readouterr()
        labels = tmp_path / "labels.tsv"
        labels.write_text("drink\t0\tanimal\tOk\nsleep\t0\tman\tSenses\n")
        assert run(["report", "--srs", str(out), "--labels", str(labels)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].endswith("  Ok")
        assert lines[2].endswith("  -")
        assert lines[3].endswith("  Senses")


class TestDemoPipeline:
    def test_extract_then_learn(self, data_dir, tmp_path, capsys):
        triples = tmp_path / "demo_triples.tsv"
        assert run(
            [
                "extract",
                "--corpus", str(data_dir / "demo.mrg"),
                "--lemmas", str(data_dir / "demo_lemmas.tsv"),
                "--triples", str(triples),
            ]
        ) == 0
        out = tmp_path / "demo_srs.tsv"
        assert run(
            [
                "learn",
                "--triples", str(triples),
                "--taxonomy", str(data_dir / "demo_taxonomy.tsv"),
                "--lexicon", str(data_dir / "demo_lexicon.tsv"),
                "--threshold", "2",
                "--min-verb-support", "2",
                "--out", str(out),
            ]
        ) == 0
        assert capsys.readouterr().out.endswith(
            "2 restrictions across 2 verb positions\n"
        )
        body = [
            l for l in out.read_text(encoding="utf-8").splitlines()
            if not l.startswith("#")
        ]
        assert body == [
            "seek\t0\tperson_individual\t0.000000\t3\t3",
            "seek\t1\tlegal_instrument\t0.415037\t3\t3",
        ]


class TestEntryPoint:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "selrestr", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for name in ("extract", "learn", "eval", "report"):
            assert name in proc.stdout

    def test_no_command_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "selrestr"], capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_import_leaves_out_what_only_some_paths_use(self):
        # dataclasses (with inspect), json, decimal, fractions and hashlib
        # (with OpenSSL's _hashlib) would cost every command start-up time,
        # and hashlib memory too; the functions that use them import them.
        def modules(code):
            proc = subprocess.run(
                [sys.executable, "-c", f"{code}; import sys; print(*sys.modules)"],
                capture_output=True, text=True, timeout=60, check=True,
                env={**os.environ, "PYTHONPATH": SRC_DIR},
            )
            return set(proc.stdout.split())

        added = modules("import selrestr.cli") - modules("pass")
        assert "selrestr.cli" in added
        assert not added & {
            "dataclasses", "inspect", "json", "decimal", "fractions", "hashlib", "_hashlib"
        }

    def test_fresh_interpreter_loads_what_a_path_uses(self, data_dir, tmp_path, monkeypatch):
        # eval reads --config and writes --format json (json), the label
        # percentages (decimal) and the ratios (fractions); extract reads a
        # --tagset file (json); learn hashes its inputs (hashlib).  Each
        # prints what it prints in process, where the tests have already
        # imported those modules.  extract and report keep no digest, so
        # they end without OpenSSL's _hashlib loaded.  Each command, and
        # the set-up child of perfbench/run.py, loads only the package
        # modules it runs: with no bytecode cached, each module loaded is
        # compiled again in every process.
        monkeypatch.chdir(tmp_path)
        labels = str(data_dir / "toy_labels.tsv")
        (tmp_path / "cfg.json").write_text(json.dumps({"format": "json", "labels": labels}))
        (tmp_path / "report.json").write_text(json.dumps({"labels": labels}))
        (tmp_path / "tags.json").write_text(json.dumps({"pp_labels": ["PP"]}))
        script = (
            "import sys; from selrestr.cli import run; status = run(sys.argv[2:]); "
            "open(sys.argv[1], 'w').write(' '.join(sys.modules)); sys.exit(status)"
        )

        def fresh(argv, output=None):
            """The stdout of ``argv`` run in a new interpreter, the names in
            its ``sys.modules`` at the end, and the bytes of ``output``."""
            proc = subprocess.run(
                [sys.executable, "-c", script, "modules.txt", *argv],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": SRC_DIR},
            )
            assert (proc.returncode, proc.stderr) == (0, "")
            written = output and Path(output).read_bytes()
            with redirect_stdout(io.StringIO()) as out:
                assert run(argv) == 0
            assert proc.stdout == out.getvalue()
            return proc.stdout, set(Path("modules.txt").read_text().split()), written

        def loaded(modules, *names):
            """Those of the package modules ``names`` that ``modules`` holds."""
            return {f"selrestr.{name}" for name in names} & modules

        out, modules, _ = fresh(TestEvalCommand().eval_argv(data_dir, "--config", "cfg.json"))
        report = json.loads(out)
        assert report["diagnostics"][0]["class_pct"] == "100.0"
        assert report["precision"]["numerator"] == 1
        assert not loaded(modules, "trees", "extract", "stats", "learner")
        extract_argv = ["extract", "--corpus", str(data_dir / "demo.mrg"),
                        "--tagset", "tags.json", "--triples", "t.tsv"]
        out, modules, _ = fresh(extract_argv)
        assert out.startswith("raw extractions  ")
        assert "_hashlib" not in modules
        assert not loaded(modules, "stats", "learner", "evaluate")
        out, modules, _ = fresh(["report", "--srs", str(data_dir / "toy_srs.tsv"),
                                 "--config", "report.json"])
        assert out.startswith("verb")
        assert "_hashlib" not in modules
        assert not loaded(modules, "trees", "extract", "stats", "learner")

        def digest_lines(data):
            return [line for line in data.splitlines() if b"_sha256=" in line]

        _, modules, written = fresh(toy_learn_argv(data_dir, "srs.tsv"), "srs.tsv")
        assert "_hashlib" in modules
        assert len(digest_lines(written)) == 3
        assert digest_lines(written) == digest_lines(Path("srs.tsv").read_bytes())
        assert not loaded(modules, "trees", "extract", "evaluate")

        runner = ast.parse((Path(SRC_DIR).parent / "perfbench" / "run.py").read_text())
        setup_code = next(
            ast.literal_eval(node.value) for node in runner.body
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SETUP_CODE"
        )
        proc = subprocess.run(
            [sys.executable, "-c", f"{setup_code}\nprint(*sys.modules)",
             str(data_dir / "toy_taxonomy.tsv"), str(data_dir / "toy_lexicon.tsv")],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC_DIR},
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        modules = set(proc.stdout.split())
        assert "selrestr.taxonomy" in modules
        assert not loaded(modules, "trees", "extract", "stats", "learner", "evaluate")


@pytest.fixture
def collector_state():
    """Puts the collector back as it was, whatever the test did."""
    was_enabled = gc.isenabled()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _extract_argv(data_dir, tmp_path, corpus=None):
    return [
        "extract",
        "--corpus", str(corpus or data_dir / "mini.mrg"),
        "--lemmas", str(data_dir / "mini_lemmas.tsv"),
        "--triples", str(tmp_path / "triples.tsv"),
    ]


@pytest.mark.usefixtures("collector_state")
class TestCollectorPause:
    """``run`` pauses the cyclic collector for the command and gives the
    caller back the state it found, on every exit."""

    def test_paused_during_the_command_and_enabled_after(
        self, data_dir, tmp_path, monkeypatch, capsys
    ):
        seen = []

        def extract_corpus(*args):
            seen.append(gc.isenabled())
            return real(*args)

        real = cli.extract_corpus
        monkeypatch.setattr(cli, "extract_corpus", extract_corpus)
        gc.enable()
        assert run(_extract_argv(data_dir, tmp_path)) == 0
        assert (seen, gc.isenabled()) == ([False], True)

    def test_enabled_after_exit_1_and_exit_2(self, data_dir, tmp_path, capsys):
        gc.enable()
        bad = tmp_path / "bad.tsv"
        bad.write_text("drink\t0\tdog\n")
        argv = toy_learn_argv(data_dir, tmp_path / "srs.tsv")
        argv[argv.index("--counts") + 1] = str(bad)
        assert run(argv) == 1
        assert gc.isenabled()
        argv = TestEvalCommand().eval_argv(data_dir, "--gold", str(tmp_path / "nope.tsv"))
        assert run(argv) == 2
        assert gc.isenabled()
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"error: {bad}: counts line 1: expected 4 fields, got 3"
        assert err[1].startswith("error: [Errno 2]")

    def test_disabled_by_the_caller_stays_disabled(self, data_dir, tmp_path, capsys):
        gc.disable()
        assert run(_extract_argv(data_dir, tmp_path)) == 0
        assert not gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_argparse_error_leaves_the_state(self, enabled, capsys):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(SystemExit):
            run(["extract", "--no-such-flag"])
        assert gc.isenabled() is enabled

    def test_cyclic_garbage_does_not_grow_with_the_input(self, data_dir, tmp_path, capsys):
        # What the pause leaves for the collector is a constant: the
        # pipeline's own data is acyclic and freed by reference counting.
        # Each command runs on one copy and on 20 copies of its input, the
        # learn and eval copies with their own verbs, after one warm-up run.
        def garbage(argv):
            gc.collect()
            gc.disable()
            assert run(argv) == 0
            return gc.collect()

        def argvs(times):
            work = tmp_path / str(times)
            work.mkdir(exist_ok=True)
            (work / "mini.mrg").write_text((data_dir / "mini.mrg").read_text() * times)
            for name in ("toy_counts.tsv", "toy_gold.tsv", "toy_labels.tsv"):
                lines = (data_dir / name).read_text().splitlines(keepends=True)
                (work / name).write_text(
                    "".join(f"v{i}{line}" for i in range(times) for line in lines)
                )
            taxonomy = [
                "--taxonomy", str(data_dir / "toy_taxonomy.tsv"),
                "--lexicon", str(data_dir / "toy_lexicon.tsv"),
            ]
            srs = str(work / "srs.tsv")
            return [
                _extract_argv(data_dir, work, work / "mini.mrg"),
                ["learn", "--counts", str(work / "toy_counts.tsv"), *taxonomy,
                 "--threshold", "1", "--min-verb-support", "1", "--out", srs],
                ["eval", "--gold", str(work / "toy_gold.tsv"), "--srs", srs, *taxonomy,
                 "--labels", str(work / "toy_labels.tsv"), "--format", "json"],
            ]

        for argv in argvs(1):
            garbage(argv)
        small = [garbage(argv) for argv in argvs(1)]
        large = [garbage(argv) for argv in argvs(20)]
        assert large == small
        learned = capsys.readouterr().out
        assert "3 restrictions across 3 verb positions" in learned
        assert "60 restrictions across 60 verb positions" in learned


# -- option table and input errors ----------------------------------------


def _cli(cwd, *argv):
    """``python -m selrestr ARGV`` in ``cwd`` with stdin closed: (status, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "selrestr", *argv],
        cwd=cwd, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC_DIR},
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode, proc.stderr


class TestConfigValueRegressions:
    """Config values of the wrong JSON type used to escape as a traceback,
    read stdin, or fail without naming the option."""

    def extract(self, data_dir, tmp_path, config):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["extract", "--config", "cfg.json"]
        if "corpus" not in config:
            argv += ["--corpus", str(data_dir / "demo.mrg")]
        if "triples" not in config:
            argv += ["--triples", "t.tsv"]
        status, err = _cli(tmp_path, *argv)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
        return status, err

    def test_corpus_list(self, data_dir, tmp_path):
        assert self.extract(data_dir, tmp_path, {"corpus": ["x"]}) == (
            1, "error: option corpus must be a path string, got ['x']\n"
        )

    def test_corpus_zero_does_not_read_stdin(self, data_dir, tmp_path):
        assert self.extract(data_dir, tmp_path, {"corpus": 0}) == (
            1, "error: option corpus must be a path string, got 0\n"
        )

    def test_triples_int(self, data_dir, tmp_path):
        assert self.extract(data_dir, tmp_path, {"triples": 7}) == (
            1, "error: option triples must be a path string, got 7\n"
        )

    def test_discards_int(self, data_dir, tmp_path):
        assert self.extract(data_dir, tmp_path, {"discards": 3}) == (
            1, "error: option discards must be a path string, got 3\n"
        )

    def test_scorer_names_the_option(self, data_dir, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"scorer": "bogus"}))
        argv = toy_learn_argv(data_dir, tmp_path / "o.tsv", "--config", "cfg.json")
        assert _cli(tmp_path, *argv) == (
            1, "error: option scorer must be assoc or pairmi or g2, got 'bogus'\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_tagset_string_value_is_not_a_tag_list(self, data_dir, tmp_path):
        # {"noun_tags": "NN"} used to be read as the tag set {"N"}.
        (tmp_path / "tags.json").write_text('{"noun_tags": "NN"}')
        argv = ["extract", "--corpus", str(data_dir / "demo.mrg"),
                "--tagset", "tags.json", "--triples", "t.tsv"]
        assert _cli(tmp_path, *argv) == (
            1, "error: tags.json: tagset key noun_tags must be a list of strings, got 'NN'\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tags.json"]


@pytest.mark.parametrize(
    "name, content, option, message",
    [
        ("tags.json", '{"noun_tags": ["NN"], "np_label": ["NP"]}', "--tagset",
         "unknown tagset keys: np_label"),
        ("lemmas.tsv", "mice\tnoun\tmouse\n# comment\ngeese\tX\tgoose\n", "--lemmas",
         "lemma table line 3: bad POS 'X'"),
    ],
    ids=["tagset", "lemmas"],
)
def test_content_error_names_the_file(data_dir, tmp_path, name, content, option, message):
    # A well-formed file whose content is wrong used to name only the
    # input kind, not the file.
    (tmp_path / name).write_text(content)
    argv = ["extract", "--corpus", str(data_dir / "demo.mrg"), option, name, "--triples", "t.tsv"]
    assert _cli(tmp_path, *argv) == (1, f"error: {name}: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("tags.json", '{"a\\nb": ["NN"], "np_label": []}',
         "tags.json: unknown tagset keys: 'a\\nb', np_label"),
        ("cfg.json", '{"thr\\nold": 1}', "config cfg.json: unknown keys 'thr\\nold'"),
    ],
    ids=["tagset", "config"],
)
def test_key_with_a_control_character_keeps_the_error_on_one_line(
    data_dir, tmp_path, name, content, message
):
    # A newline in an unknown key used to split the error over two lines;
    # printable keys are still given as they are.
    (tmp_path / name).write_text(content)
    option = "--tagset" if name == "tags.json" else "--config"
    argv = ["extract", "--corpus", str(data_dir / "demo.mrg"), option, name, "--triples", "t.tsv"]
    assert _cli(tmp_path, *argv) == (1, f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


@pytest.mark.parametrize(
    "command, option, kind, fields",
    [
        ("learn", "--counts", "counts", "4"),
        ("learn", "--triples", "triples", "3"),
        ("learn", "--taxonomy", "taxonomy", "2"),
        ("learn", "--lexicon", "lexicon", "2"),
        ("eval", "--gold", "gold", "3 or 5"),
        ("eval", "--srs", "restrictions", "6"),
        ("eval", "--labels", "labels", "4 or 5"),
        ("report", "--srs", "restrictions", "6"),
        ("report", "--labels", "labels", "4 or 5"),
    ],
)
def test_line_error_names_the_file(
    data_dir, tmp_path, monkeypatch, capsys, command, option, kind, fields
):
    # A bad line of a TSV input used to name only the kind of input.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.tsv").write_text("# header\nx\n", encoding="utf-8")
    toy = {
        "counts": "toy_counts.tsv", "taxonomy": "toy_taxonomy.tsv", "lexicon": "toy_lexicon.tsv",
        "gold": "toy_gold.tsv", "srs": "toy_srs.tsv",
    }
    given = {
        "learn": ["counts", "taxonomy", "lexicon"],
        "eval": ["gold", "srs", "taxonomy", "lexicon"],
        "report": ["srs"],
    }[command]
    opts = {"--" + name: str(data_dir / toy[name]) for name in given}
    if command == "learn":
        opts["--out"] = "out.tsv"
    if option == "--triples":
        del opts["--counts"]
    opts[option] = "bad.tsv"
    argv = [command, *(arg for pair in opts.items() for arg in pair)]
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"error: bad.tsv: {kind} line 2: expected {fields} fields, got 1\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.tsv"]


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("extract", {"tagset": 5}, "option tagset must be a path string, got 5"),
        ("extract", {"lemmas": ""}, "option lemmas must be a path string, got ''"),
        ("learn", {"threshold": True}, "option threshold must be an integer, got True"),
        ("learn", {"min_verb_support": 1.0},
         "option min_verb_support must be an integer, got 1.0"),
        ("learn", {"keep_nonpositive": "no"},
         "option keep_nonpositive must be true or false, got 'no'"),
        ("learn", {"estimator": None}, "option estimator must be raw or sense, got None"),
        ("learn", {"threshold": 0}, "threshold must be >= 1, got 0"),
        ("eval", {"format": 3}, "option format must be text or json, got 3"),
        ("report", {"labels": {"a": 1}}, "option labels must be a path string, got {'a': 1}"),
    ],
)
def test_config_value_error_names_the_option(data_dir, tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.tsv"
    argv = {
        "extract": ["extract", "--corpus", str(data_dir / "demo.mrg"), "--triples", str(out)],
        "learn": ["learn", "--counts", str(data_dir / "toy_counts.tsv"),
                  "--taxonomy", str(data_dir / "toy_taxonomy.tsv"),
                  "--lexicon", str(data_dir / "toy_lexicon.tsv"), "--out", str(out)],
        "eval": TestEvalCommand().eval_argv(data_dir),
        "report": ["report", "--srs", str(data_dir / "toy_srs.tsv")],
    }[command]
    assert run(argv + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize(
    "name, content, option",
    [
        ("corpus.mrg", b"(S (NP (NN dog\xff)))\n", "--corpus"),
        ("corpus.mrg", b"(S (NP (NN dog))\n", "--corpus"),
        ("tags.json", b'{"noun_tags": ["N\xff"]}', "--tagset"),
        ("tags.json", b'{"noun_tags": ["N"],}', "--tagset"),
        ("lemmas.tsv", b"dogs\tnoun\tdog\xff\n", "--lemmas"),
        ("cfg.json", b'{"triples": "t.tsv"\xff}', "--config"),
        ("cfg.json", b"{'triples': 't.tsv'}", "--config"),
        ("cfg.json", b"[" * 100_000, "--config"),
    ],
    ids=["corpus-utf8", "corpus-syntax", "tagset-utf8", "tagset-json", "lemmas-utf8",
         "config-utf8", "config-json", "config-too-deep"],
)
def test_undecodable_input_names_the_file(data_dir, tmp_path, capsys, name, content, option):
    bad = tmp_path / name
    bad.write_bytes(content)
    argv = ["extract", "--corpus", str(data_dir / "demo.mrg"), option, str(bad)]
    out = tmp_path / "t.tsv"
    assert run(argv + ["--triples", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


@pytest.mark.parametrize(
    "command, option",
    [
        ("extract", "--lemmas"),
        ("extract", "--tagset"),
        ("eval", "--srs"),
        ("eval", "--gold"),
        ("eval", "--labels"),
        ("report", "--srs"),
        ("report", "--labels"),
        ("report", "--config"),
    ],
)
def test_non_utf8_read_exits_1_naming_the_file(
    data_dir, tmp_path, monkeypatch, capsys, command, option
):
    # The reads that keep no digest: one bad byte stops the command with
    # one line that names the file, and nothing is written.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad").write_bytes(b"# header\ndrink\t0\tdog\xff\n")
    argv = {
        "extract": ["extract", "--corpus", str(data_dir / "demo.mrg"), "--triples", "out.tsv"],
        "eval": TestEvalCommand().eval_argv(data_dir),
        "report": ["report", "--srs", str(data_dir / "toy_srs.tsv")],
    }[command]
    if option in argv:
        argv[argv.index(option) + 1] = "bad"
    else:
        argv += [option, "bad"]
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: bad: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad"]


# -- fuzzing ---------------------------------------------------------------

# The toy inputs each fuzz case starts from, by the name it has in its
# working directory.
FUZZ_FILES = {
    "corpus.mrg": "demo.mrg",
    "lemmas.tsv": "demo_lemmas.tsv",
    "counts.tsv": "toy_counts.tsv",
    "taxonomy.tsv": "toy_taxonomy.tsv",
    "lexicon.tsv": "toy_lexicon.tsv",
    "gold.tsv": "toy_gold.tsv",
    "srs.tsv": "toy_srs.tsv",
    "labels.tsv": "toy_labels.tsv",
}
FUZZ_FLAGS = {
    "extract": [("--corpus", "corpus.mrg"), ("--lemmas", "lemmas.tsv"), ("--triples", "out.tsv")],
    "learn": [("--counts", "counts.tsv"), ("--taxonomy", "taxonomy.tsv"),
              ("--lexicon", "lexicon.tsv"), ("--threshold", "1"),
              ("--min-verb-support", "1"), ("--out", "out.tsv")],
    "eval": [("--gold", "gold.tsv"), ("--srs", "srs.tsv"), ("--taxonomy", "taxonomy.tsv"),
             ("--lexicon", "lexicon.tsv")],
    "report": [("--srs", "srs.tsv")],
}
# Strings that mean something to some option, then JSON values of every
# type.  Generated strings hold no path separator, so every path stays
# inside the case's working directory.
MEANINGFUL = [*FUZZ_FILES, "out.tsv", "tags.json", "", ".", "assoc", "g2", "sense", "json"]
json_value = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-3, max_value=12) | st.floats()
    | st.sampled_from(MEANINGFUL)
    | st.text(st.characters(blacklist_characters="/\\", blacklist_categories=("Cs",)), max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def _snapshot(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", list(FUZZ_FLAGS))
def test_fuzz_config_gives_a_status_never_a_traceback(data_dir, tmp_path, command):
    names = [name for name, *_ in cli.OPTIONS[command]] + ["unknown_key"]
    flags = FUZZ_FLAGS[command]

    @settings(max_examples=50, deadline=None)
    @given(
        config=st.dictionaries(st.sampled_from(names), json_value, max_size=4),
        keep=st.lists(st.booleans(), min_size=len(flags), max_size=len(flags)),
    )
    def check(config, keep):
        with tempfile.TemporaryDirectory(dir=tmp_path) as work:
            root = Path(work)
            for name, source in FUZZ_FILES.items():
                (root / name).write_bytes((data_dir / source).read_bytes())
            (root / "tags.json").write_text('{"noun_tags": ["NN", "NNS"]}')
            (root / "cfg.json").write_text(json.dumps(config))
            argv = [command, "--config", "cfg.json"]
            for (flag, value), used in zip(flags, keep):
                argv += [flag, value] if used else []
            before = _snapshot(root)
            out, err = io.StringIO(), io.StringIO()
            cwd = os.getcwd()
            os.chdir(root)
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    status = run(argv)
            finally:
                os.chdir(cwd)
            after = _snapshot(root)
            assert status in (0, 1, 2)
            assert not [p for p in after if p.name.endswith(".tmp")], after
            if status:
                assert err.getvalue().startswith("error: "), err.getvalue()
                assert after == before

    check()


# Path values for the argv fuzz: every input of FUZZ_FILES, an output name
# that two outputs can share (also spelt with "./"), a file that does not
# exist, a directory and a path under a missing directory.
PATH_POOL = [*FUZZ_FILES, "tags.json", "out.tsv", "./out.tsv", "missing.tsv", ".", "nodir/x.tsv"]
# The file each input option reads when it is given its own kind of file;
# every other path option is an output, whose own name is "out.tsv".
OWN_FILE = {"corpus": "corpus.mrg", "lemmas": "lemmas.tsv", "tagset": "tags.json",
            "counts": "counts.tsv", "taxonomy": "taxonomy.tsv", "lexicon": "lexicon.tsv",
            "gold": "gold.tsv", "srs": "srs.tsv", "labels": "labels.tsv"}


def _flag_uses(name, kind):
    """The argv tokens of one use of option ``name``."""
    flag = "--" + name.replace("_", "-")
    if kind == cli.BOOL:
        return st.sampled_from([[flag], ["--no-" + flag[2:]]])
    if kind == cli.INT:
        values = st.integers(min_value=-1, max_value=3).map(str)
    elif kind == cli.PATH:
        # About half the draws are the option's own file, so that runs get
        # past their inputs and two outputs often share "out.tsv".
        values = st.just(OWN_FILE.get(name, "out.tsv")) | st.sampled_from(PATH_POOL)
    else:
        values = st.sampled_from([*kind, "bogus"])
    return values.map(lambda value: [flag, value])


@st.composite
def fuzz_argv(draw, command):
    """Each of the command's flags left out, given once or repeated, in any
    order, and sometimes one unknown flag."""
    uses = []
    for name, kind, _, _ in cli.OPTIONS[command]:
        for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
            uses.append(draw(_flag_uses(name, kind)))
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        uses.append(draw(st.sampled_from([["--bogus"], ["--bogus", "out.tsv"]])))
    return [command, *(token for use in draw(st.permutations(uses)) for token in use)]


def _last_value(argv, flag):
    return [value for token, value in zip(argv, argv[1:]) if token == flag][-1]


# The options that name an output; every other path option names an input.
OUTPUT_OPTIONS = {"extract": ("triples", "discards"), "learn": ("out",)}


def _read_paths(command, argv):
    """The files that a run of ``argv`` reads: the last value of each
    input option given."""
    names = [name for name, kind, _, _ in cli.OPTIONS[command]
             if kind == cli.PATH and name not in OUTPUT_OPTIONS.get(command, ())]
    flags = ["--" + name.replace("_", "-") for name in names] + ["--config"]
    return [Path(_last_value(argv, flag)) for flag in flags if flag in argv[:-1]]


@pytest.mark.parametrize("command", list(FUZZ_FLAGS))
def test_fuzz_argv_gives_a_status_never_a_traceback(data_dir, tmp_path, command):
    @settings(max_examples=60, deadline=None)
    @given(argv=fuzz_argv(command))
    def check(argv):
        with tempfile.TemporaryDirectory(dir=tmp_path) as work:
            root = Path(work)
            for name, source in FUZZ_FILES.items():
                (root / name).write_bytes((data_dir / source).read_bytes())
            (root / "tags.json").write_text('{"noun_tags": ["NN", "NNS"]}')
            before = _snapshot(root)
            out, err = io.StringIO(), io.StringIO()
            cwd = os.getcwd()
            os.chdir(root)
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    try:
                        status = run(argv)
                    except SystemExit as exc:  # argparse's usage errors
                        status = exc.code
            finally:
                os.chdir(cwd)
            after = _snapshot(root)
            assert status in (0, 1, 2), (argv, status)
            assert not [p for p in after if p.name.endswith(".tmp")], after
            if status:
                assert "error: " in err.getvalue(), (argv, err.getvalue())
            if status == 1:
                assert err.getvalue().startswith("error: "), (argv, err.getvalue())
                assert after == before, argv
            if status == 0:
                for path in _read_paths(command, argv):
                    assert path not in before or after[path] == before[path], (argv, path)
            if command == "extract" and status == 0:
                kept = int(out.getvalue().split("kept")[1].split()[0])
                triples = (root / _last_value(argv, "--triples")).read_text(encoding="utf-8")
                assert len(triples.splitlines()) == kept, argv

    if command == "extract":
        # Both outputs in one file: the discards used to replace the triples;
        # and the triples used to replace the corpus they came from.
        check = example(argv=["extract", "--corpus", "corpus.mrg", "--triples", "out.tsv",
                              "--discards", "./out.tsv"])(check)
        check = example(argv=["extract", "--corpus", "corpus.mrg",
                              "--triples", "corpus.mrg"])(check)
    if command == "learn":
        # The restrictions used to replace the counts they were learned from.
        check = example(argv=["learn", *(t for pair in FUZZ_FLAGS["learn"][:3] for t in pair),
                              "--out", "counts.tsv"])(check)
    check()


# -- fuzzing file contents ---------------------------------------------------

# One valid run per command with every input it can take.  Each case below
# replaces one input with generated contents and keeps the others valid.
CONTENT_ARGV = {
    "extract": ["extract", "--corpus", "corpus.mrg", "--lemmas", "lemmas.tsv",
                "--tagset", "tags.json", "--triples", "out.tsv", "--config", "cfg.json"],
    "learn": ["learn", "--counts", "counts.tsv", "--taxonomy", "taxonomy.tsv",
              "--lexicon", "lexicon.tsv", "--threshold", "1", "--min-verb-support", "1",
              "--out", "out.tsv", "--config", "cfg.json"],
    "learn-triples": ["learn", "--triples", "triples.tsv", "--taxonomy", "taxonomy.tsv",
                      "--lexicon", "lexicon.tsv", "--threshold", "1", "--min-verb-support", "1",
                      "--out", "out.tsv"],
    "eval": ["eval", "--gold", "gold.tsv", "--srs", "srs.tsv", "--taxonomy", "taxonomy.tsv",
             "--lexicon", "lexicon.tsv", "--labels", "labels.tsv", "--config", "cfg.json"],
    "report": ["report", "--srs", "srs.tsv", "--labels", "labels.tsv"],
}
TOY_TRIPLES = "drink\t0\tdog\ndrink\t0\tdog\ndrink\t0\tcat\ndrink\t1\twater\nsleep\t0\tman\n"
# TSV inputs: the reader's kind, which its line errors name, and its field counts.
TSV_KINDS = {
    "lemmas.tsv": ("lemma table", (3,)), "counts.tsv": ("counts", (4,)),
    "triples.tsv": ("triples", (3,)), "taxonomy.tsv": ("taxonomy", (2,)),
    "lexicon.tsv": ("lexicon", (2,)), "gold.tsv": ("gold", (3, 5)),
    "srs.tsv": ("restrictions", (6,)), "labels.tsv": ("labels", (4, 5)),
}
CONTENT_CASES = [
    ("extract", "corpus.mrg"), ("extract", "lemmas.tsv"), ("extract", "tags.json"),
    ("extract", "cfg.json"), ("learn", "counts.tsv"), ("learn", "taxonomy.tsv"),
    ("learn", "lexicon.tsv"), ("learn", "cfg.json"), ("learn-triples", "triples.tsv"),
    ("eval", "gold.tsv"), ("eval", "srs.tsv"), ("eval", "taxonomy.tsv"),
    ("eval", "labels.tsv"), ("report", "srs.tsv"), ("report", "labels.tsv"),
]

BRACKET_TOKENS = ["(", ")", "(S", "(SINV", "(NP", "(VP", "(PP", "(NN", "(NNS", "(VBZ", "(IN",
                  "(DT", "dog", "Cats", "barks", "with", "the", "42", "x y", "\n", "\t"]
TAGSET_KEYS = ["noun_tags", "verb_tags", "prep_tags", "clause_labels", "np_labels",
               "vp_labels", "pp_labels", "np_label"]


def _spliced(valid, generated):
    """Generated text alone, or put in among the lines of the valid file."""
    lines = valid.splitlines(keepends=True)
    return generated | st.tuples(
        generated, st.integers(min_value=0, max_value=len(lines))
    ).map(lambda t: "".join(lines[: t[1]]) + t[0] + "\n" + "".join(lines[t[1]:]))


def _contents(name, valid, command):
    """Bytes for file ``name`` of a ``command`` run: mostly UTF-8 text of
    its format, sometimes any bytes at all."""
    if name in TSV_KINDS:
        text = _spliced(valid, texts(TSV_KINDS[name][1]))
    elif name == "corpus.mrg":
        text = _spliced(valid, st.lists(st.sampled_from(BRACKET_TOKENS), max_size=30).map(" ".join))
    else:
        keys = TAGSET_KEYS if name == "tags.json" else [
            *(n for n, *_ in cli.OPTIONS[command]), "unknown_key"]
        objects = st.dictionaries(st.sampled_from(keys), json_value, max_size=3)
        lists = st.dictionaries(st.sampled_from(keys), st.lists(st.sampled_from(["NN", "S", ""])))
        text = st.one_of(objects, lists, json_value).map(json.dumps) | st.text(max_size=12)
    return text.map(lambda t: t.encode("utf-8")) | st.binary(max_size=12)


@pytest.mark.parametrize("command, name", CONTENT_CASES, ids=[f"{c}-{n}" for c, n in CONTENT_CASES])
def test_fuzz_contents_gives_a_status_and_names_the_file(data_dir, tmp_path, command, name):
    """Generated contents of one input file through ``cli.run``: status 0,
    1 or 2 and never a traceback; a failed run changes no file; exit 1
    prints one ``error: <that file>: `` line, which for a TSV input names
    ``<kind> line N`` with N inside the file.  Two errors are not about
    the file's own lines: a taxonomy cycle, and a lexicon line naming a
    class that the generated taxonomy lacks.  A ``--config`` object
    whose values are wrong names the option instead of the file; only
    text that is not JSON must name it.  Bytes that are not UTF-8 name
    the file and the decoder's error."""
    valid = {**{n: (data_dir / src).read_bytes() for n, src in FUZZ_FILES.items()},
             "tags.json": b'{"noun_tags": ["NN", "NNS"]}', "cfg.json": b"{}",
             "triples.tsv": TOY_TRIPLES.encode()}

    @settings(max_examples=40, deadline=None)
    @given(content=_contents(name, valid[name].decode("utf-8"), CONTENT_ARGV[command][0]))
    def check(content):
        with tempfile.TemporaryDirectory(dir=tmp_path) as work:
            root = Path(work)
            for file, data in valid.items():
                (root / file).write_bytes(content if file == name else data)
            before = _snapshot(root)
            out, err = io.StringIO(), io.StringIO()
            cwd = os.getcwd()
            os.chdir(root)
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    status = run(CONTENT_ARGV[command])
            finally:
                os.chdir(cwd)
            after = _snapshot(root)
            message = err.getvalue()
            assert status in (0, 1, 2), status
            if status:
                assert after == before
                assert message.startswith("error: ") and message.count("\n") == 1, message
            if status != 1:
                return
            if name == "cfg.json":
                try:
                    json.loads(content)
                except (ValueError, RecursionError):
                    assert message.startswith("error: cfg.json: "), message
                return
            if name == "taxonomy.tsv" and message.startswith("error: lexicon.tsv: lexicon line "):
                return
            assert message.startswith(f"error: {name}: "), message
            try:
                text = content.decode("utf-8")
            except UnicodeDecodeError:
                assert "'utf-8' codec can't decode" in message, message
                return
            if name in TSV_KINDS:
                if name == "taxonomy.tsv" and "cycle detected among classes: " in message:
                    return
                kind = TSV_KINDS[name][0]
                m = re.match(rf"error: {re.escape(name)}: {kind} line (\d+): ", message)
                assert m, message
                assert 1 <= int(m.group(1)) <= len(text.splitlines()), message

    check()
