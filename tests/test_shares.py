"""``extract`` in shares: where the corpus is cut, how many shares it
takes, the forked children, and the command's outputs and errors against
the serial run's."""

import io
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import selrestr
from selrestr import shares
from selrestr.cli import run
from selrestr.extract import LemmaTable, extract_corpus
from selrestr.trees import TreeSyntaxError, cut, parse_bracketed
from selrestr.triples import percentage, write_discards, write_triples
from test_extract import clause_trees

SRC_DIR = str(Path(selrestr.__file__).resolve().parent.parent)
LEMMA_TEXT = "sought\tverb\tseek\nsaw\tverb\tsee\n"
MANY_CPUS = pytest.mark.skipif(
    shares.cpus() < 2, reason="only one CPU is available, so extract runs one share"
)

# -- a generated corpus of clause trees ------------------------------------

NOUNS = ("dog", "cats", "board", "policies", "Plan", "water", "1990s")
VERBS = (("VBD", "sought"), ("VBD", "saw"), ("VB", "seek"), ("VBZ", "carries"))
PREPS = ("in", "On", "to", "of", "0")


def _np(rng: random.Random) -> str:
    tag = rng.choice(("NN", "NNS", "NN", "NNS", "PRP", "CD"))
    word = {"PRP": "he", "CD": "7"}.get(tag) or rng.choice(NOUNS)
    return f"(NP (DT the) ({tag} {word}))"


def _clause(rng: random.Random) -> str:
    tag, verb = rng.choice(VERBS)
    parts = [f"({tag} {verb})"]
    if rng.random() < 0.7:
        parts.append(_np(rng))
    for _ in range(rng.randint(0, 2)):
        parts.append(f"(PP (IN {rng.choice(PREPS)}) {_np(rng)})")
    return f"(S {_np(rng)} (VP {' '.join(parts)}))"


def corpus(seed: int, layout: str = "lines", size: int = 0) -> str:
    """Clause trees of at least ``size`` characters (by default, enough
    for three shares): one per line with two leading spaces (``lines``),
    broken across lines (``spanning``), or all inside one tree on one line
    (``one tree``)."""
    rng = random.Random(seed)
    size = size or 3 * shares.MIN_SHARE
    trees, total = [], 0
    while total < size:
        trees.append(_clause(rng))
        total += len(trees[-1]) + 3
    if layout == "one tree":
        return f"(TOP {' '.join(trees)})\n"
    if layout == "spanning":
        pieces = " ".join(trees).split(" ")
        return "".join(p + rng.choice((" ", " ", "\n", "\n  ")) for p in pieces) + "\n"
    return "".join(f"  {tree}\n" for tree in trees)


# Each replaces one "(DT the)": a leaf with two tokens, an empty
# constituent, an unclosed bracket and a stray ")".
FAULTS = ("(DT the x)", "(DT)", "(DT the", "(DT the))")


def with_fault(text: str, share: int, fault: str, seed: int) -> str:
    """``text`` with one "(DT the)" of share ``share`` (as ``extract``
    cuts it on this host) replaced by ``fault``."""
    spans = cut(text, shares.count(len(text), shares.cpus()))
    span = spans[min(share, len(spans) - 1)]
    at = text.find("(DT the)", random.Random(seed).randrange(span.start, span.stop))
    if at < 0:
        at = text.rindex("(DT the)")
    return text[:at] + fault + text[at + len("(DT the)"):]


def expected(text: str, corpus_path: Path) -> tuple[int, str, str, str]:
    """(status, stdout, stderr, triples + discards) of a serial run, made
    from ``extract_corpus(parse_bracketed(text))``."""
    try:
        records = extract_corpus(parse_bracketed(text), LemmaTable.from_text(LEMMA_TEXT))
    except TreeSyntaxError as exc:
        return 1, "", f"error: {corpus_path}: {exc}\n", ""
    kept, lost = io.StringIO(), io.StringIO()
    write_triples([r for r in records if r.kept], kept)
    write_discards([r for r in records if not r.kept], lost)
    raw = len(records)
    counts = [sum(r.discard_reason == reason for r in records)
              for reason in ("NonNounHead", "LemmaFailure", None)]
    out = "".join(
        f"{label:<17}{n} ({percentage(n, raw)}%)\n"
        for label, n in zip(("non-noun heads", "lemma failures", "kept"), counts)
    )
    return 0, f"raw extractions  {raw}\n{out}", "", kept.getvalue() + lost.getvalue()


# -- the share count --------------------------------------------------------


class TestCount:
    def test_a_hundred_thousand_cpus_are_capped_by_the_minimum_share(self):
        assert shares.count(10 * shares.MIN_SHARE + 5, 100_000) == 10
        assert shares.count(100_000 * shares.MIN_SHARE, 100_000) == 100_000
        assert shares.count(2 * shares.MIN_SHARE, 3) == 2

    def test_one_share_below_twice_the_minimum_or_on_one_cpu(self):
        assert shares.count(2 * shares.MIN_SHARE - 1, 64) == 1
        assert shares.count(0, 64) == 1
        assert shares.count(100 * shares.MIN_SHARE, 1) == 1

    def test_one_share_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert shares.count(100 * shares.MIN_SHARE, 64) == 1


# -- the cut ----------------------------------------------------------------


def _check_cut(text: str, n: int) -> list[slice]:
    spans = cut(text, n)
    assert 1 <= len(spans) <= n
    assert "".join(text[s] for s in spans) == text
    for span in spans[1:]:
        before = text[: span.start]
        assert before.endswith("\n") and before.count("(") == before.count(")")
    return spans


class TestCut:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(clause_trees, st.sampled_from(["\n", " ", "\n\n", "\n  ", " x\n"])),
            min_size=1, max_size=6,
        ),
        st.integers(1, 6),
    )
    def test_shares_hold_whole_trees_in_order(self, parts, n):
        # A tree may span lines and a line may hold several trees; a stray
        # token "x" is cut like any other text outside a tree.
        text = "".join(tree.replace(" (", rest[:1] + "(") + rest for tree, rest in parts)
        spans = _check_cut(text, n)
        if " x\n" not in text:
            trees = [tree for span in spans for tree in parse_bracketed(text[span])]
            assert trees == parse_bracketed(text)

    @pytest.mark.parametrize("layout", ["lines", "spanning"])
    def test_shares_are_about_equal(self, layout):
        text = corpus(1, layout)
        spans = _check_cut(text, 3)
        assert len(spans) == 3
        assert all(abs(s.stop - s.start - len(text) / 3) < 1000 for s in spans)

    def test_one_tree_on_one_line_is_one_share(self):
        text = corpus(2, "one tree")
        assert cut(text, 4) == [slice(0, len(text))]
        assert cut("(S (NN a))", 2) == [slice(0, 10)]

    def test_no_cut_while_a_bracket_stays_open(self):
        text = "(S\n(NN a)\n(NN b)\n(NN c)\n)\n(S (NN d))\n"
        assert [text[s] for s in cut(text, 3)] == [text[:26], text[26:]]


# -- the forked children ------------------------------------------------------


def _reaped(pids: list[int]) -> bool:
    """Whether every one of ``pids`` has exited and been reaped."""
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        return False
    return True


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that ``os.fork`` makes in this process."""
    pids, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


class TestRun:
    def test_results_in_share_order(self, forks):
        made = shares.run([1, 2, 3, 4], lambda s: s * 10, lambda s: str(s).encode() * s)
        assert made == (10, [b"22", b"333", b"4444"])
        assert len(forks) == 3 and _reaped(forks)

    def test_a_large_result_passes_the_pipe(self, forks):
        made = shares.run(["a", "b"], str.upper, lambda s: s.encode() * (1 << 22))
        assert made == ("A", [b"b" * (1 << 22)])
        assert _reaped(forks)

    @pytest.mark.parametrize("how", ["raises", "killed", "exits 3"])
    def test_a_failed_child_gives_none(self, forks, how):
        def there(share):
            if share == 2:
                if how == "raises":
                    raise ValueError("share 2")
                if how == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(3)
            return b"ok"

        with redirect_stderr(io.StringIO()) as err:
            assert shares.run([1, 2, 3], lambda s: s, there) is None
        assert err.getvalue() == ""
        assert _reaped(forks)

    def test_an_error_here_propagates_once_every_child_is_reaped(self, forks):
        def interrupted(share):
            raise KeyboardInterrupt

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            shares.run([1, 2, 3], interrupted, lambda s: time.sleep(60) or b"")
        assert time.monotonic() - start < 30
        assert len(forks) == 2 and _reaped(forks)

    @pytest.mark.parametrize("call", ["pipe", "fork"])
    def test_no_pipe_or_no_fork_gives_none(self, monkeypatch, forks, call):
        made = []
        real = getattr(os, call)

        def fails(*args):
            if made:
                raise OSError(11, "Resource temporarily unavailable")
            made.append(1)
            return real(*args)

        monkeypatch.setattr(os, call, fails)
        assert shares.run([1, 2, 3], lambda s: s, lambda s: b"") is None
        assert _reaped(forks)


# -- the command --------------------------------------------------------------


def _extract(tmp_path: Path, text: str) -> tuple[int, str, str, str]:
    """(status, stdout, stderr, triples + discards) of ``extract`` run in
    this process on ``text``."""
    path = tmp_path / "corpus.mrg"
    path.write_text(text, encoding="utf-8", newline="")
    (tmp_path / "lemmas.tsv").write_text(LEMMA_TEXT, encoding="utf-8")
    triples = tmp_path / "triples.tsv"
    for f in (triples, tmp_path / "triples.tsv.discards"):
        f.unlink(missing_ok=True)
    argv = ["extract", "--corpus", str(path), "--lemmas", str(tmp_path / "lemmas.tsv"),
            "--triples", str(triples)]
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        status = run(argv)
    files = "".join(
        f.read_text(encoding="utf-8") for f in (triples, tmp_path / "triples.tsv.discards")
        if f.exists()
    )
    return status, out.getvalue(), err.getvalue(), files


@pytest.fixture
def no_fork(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)


class TestForksNothing:
    """With one share, the command starts no process: these patch the
    CPU count or use a small corpus, and fail on any fork."""

    def test_corpus_below_twice_the_minimum_share(self, tmp_path, no_fork):
        text = corpus(3, size=2 * shares.MIN_SHARE - 1000)
        assert len(text) < 2 * shares.MIN_SHARE
        assert _extract(tmp_path, text)[0] == 0

    def test_one_cpu(self, tmp_path, monkeypatch, no_fork):
        monkeypatch.setattr(shares, "cpus", lambda: 1)
        assert _extract(tmp_path, corpus(4))[0] == 0

    def test_no_fork(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        text = corpus(5)
        status, out, err, files = _extract(tmp_path, text)
        assert (status, err) == (0, "")
        assert files == expected(text, tmp_path / "corpus.mrg")[3]


class TestInShares:
    """The command in shares of small texts, by a small ``MIN_SHARE``
    and more CPUs than the host may have: what it prints and writes is
    that of one share, and of the library."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(clause_trees, min_size=1, max_size=6),
        st.sampled_from(["\n", "\r\n"]),
        st.sampled_from([None, *FAULTS, "x"]),
        st.integers(0, 5),
        st.integers(2, 4),
    )
    def test_same_outputs_and_errors_as_one_share(self, trees, newline, fault, where, n):
        text = newline.join(trees) + newline
        if fault == "x":  # a stray token between two trees
            at = [i for i, ch in enumerate(text) if ch == "\n"][where % len(trees)]
            text = text[:at] + " x" + text[at:]
        elif fault is not None and "(DT the)" in text:
            at = [i for i in range(len(text)) if text.startswith("(DT the)", i)]
            at = at[where % len(at)]
            text = text[:at] + fault + text[at + len("(DT the)"):]
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(shares, "MIN_SHARE", 1)
            mp.setattr(shares, "cpus", lambda: n)
            got = _extract(Path(tmp), text)
            mp.setattr(shares, "cpus", lambda: 1)
            assert got == _extract(Path(tmp), text)
            assert got == expected(text.replace("\r\n", "\n"), Path(tmp) / "corpus.mrg")


def _spawn(tmp_path: Path, text: str, pinned: bool) -> tuple[int, str, str, bytes, bytes]:
    """(status, stdout, stderr, triples, discards) of ``python -m selrestr
    extract`` on ``text``, in a session of its own; pinned to one CPU, it
    runs one share.  No process of that session is left when it ends."""
    path = tmp_path / "corpus.mrg"
    path.write_bytes(text.encode("utf-8"))
    (tmp_path / "lemmas.tsv").write_text(LEMMA_TEXT, encoding="utf-8")
    outputs = [tmp_path / "triples.tsv", tmp_path / "triples.tsv.discards"]
    for f in outputs:
        f.unlink(missing_ok=True)
    one_cpu = {min(os.sched_getaffinity(0))} if pinned else None
    with subprocess.Popen(
        [sys.executable, "-m", "selrestr", "extract", "--corpus", str(path),
         "--lemmas", str(tmp_path / "lemmas.tsv"), "--triples", str(outputs[0])],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        preexec_fn=(lambda: os.sched_setaffinity(0, one_cpu)) if pinned else None,
    ) as proc:
        out, err = proc.communicate(timeout=120)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    files = [f.read_bytes() if f.exists() else b"" for f in outputs]
    return proc.returncode, out, err, *files


class TestNoChildOutlivesTheCommand:
    """``extract`` on a corpus of three minimum shares, with a syntax error
    in the first share, in the second, and at the cut between them: it
    exits 1 with the serial message, and leaves no process behind."""

    @staticmethod
    def broken(where: str) -> str:
        text = corpus(6)
        spans = cut(text, 2)
        if where == "at the cut":  # a stray token in place of the two spaces
            at = spans[1].start
            broken = text[:at] + "x " + text[at + 2:]
        else:  # a leaf with two tokens, the same length as the one it replaces
            span = spans[0 if where == "in share 1" else 1]
            at = text.index("(DT the)", span.start + 100)
            broken = text[:at] + "(DT t e)" + text[at + 8:]
        assert cut(broken, 2) == spans
        return broken

    @pytest.mark.parametrize("where", ["in share 1", "in share 2", "at the cut"])
    def test_exits_1_with_the_serial_message(self, tmp_path, where):
        text = self.broken(where)
        with pytest.raises(TreeSyntaxError) as err:
            parse_bracketed(text)
        got = _spawn(tmp_path, text, pinned=False)
        assert got == (1, "", f"error: {tmp_path / 'corpus.mrg'}: {err.value}\n", b"", b"")

    def test_a_clean_run(self, tmp_path):
        status, out, err, triples, discards = _spawn(tmp_path, corpus(6), pinned=False)
        assert (status, err) == (0, "")
        assert triples and discards


@MANY_CPUS
class TestSharesAgainstOneCpu:
    """The command spawned with the CPUs it may use and pinned to one CPU,
    on generated corpora above the minimum share size: the outputs, the
    messages and the status are the same, and are those of the library."""

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 1 << 16),
        layout=st.sampled_from(["lines", "spanning", "one tree"]),
        newline=st.sampled_from(["\n", "\r\n"]),
        fault=st.sampled_from([None, "stray", *FAULTS]),
        share=st.integers(0, 1),
    )
    @example(seed=1, layout="lines", newline="\n", fault=None, share=0)
    @example(seed=2, layout="spanning", newline="\n", fault=None, share=0)
    @example(seed=3, layout="lines", newline="\r\n", fault=None, share=0)
    @example(seed=4, layout="one tree", newline="\n", fault=None, share=0)
    @example(seed=5, layout="lines", newline="\n", fault="stray", share=1)
    @example(seed=6, layout="spanning", newline="\n", fault="(DT the x)", share=0)
    @example(seed=7, layout="lines", newline="\r\n", fault="(DT)", share=1)
    @example(seed=8, layout="lines", newline="\n", fault="(DT the))", share=1)
    def test_same_as_one_cpu_and_the_library(self, seed, layout, newline, fault, share):
        text = corpus(seed, layout)
        if layout != "one tree":
            assert len(cut(text, 2)) == 2
        if fault == "stray":
            at = text.index("\n", random.Random(seed).randrange(len(text) // 2, len(text) - 200))
            text = text[:at] + "\nstray" + text[at:]
        elif fault is not None:
            text = with_fault(text, share, fault, seed)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            got = _spawn(tmp, text.replace("\n", newline), pinned=False)
            assert got == _spawn(tmp, text.replace("\n", newline), pinned=True)
            files = (got[3] + got[4]).decode("utf-8")
            assert (*got[:3], files) == expected(text, tmp / "corpus.mrg")
