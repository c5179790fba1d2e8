"""Time and peak memory of ``extract`` on a replicated corpus, in shares
and pinned to one CPU.

The corpus is the seed-N ``corpus`` workload of ``perfbench/gen.py``
(9,000 clauses, 1.1 MB at seed 7), its lines repeated k times; a k below
1 takes that share of its first lines.  A child writes each corpus and
the lemma table, read-only; this process then spawns ``extract`` on
them and prints each run's wall time, the child's own peak RSS
(``ru_maxrss`` from ``os.wait4``) and the SHA-256 of each output (the
triples, the discards and standard output).  This process stays small,
so a child's peak is its own and not the RSS it started from.

Each run is made twice: as the command runs, in as many shares as it
picks for the CPUs it may use, and with the spawned child alone pinned
to one CPU (``os.sched_setaffinity``), which makes it run serially.

    python3 tests/extract_scale.py [--seed 7] [--runs 3] [--times 1 4 16] [--src DIR ...]

Each ``--src`` is a package source directory (default: this checkout's
``src``); with several, the runs alternate between them, so two
versions of the package are compared on the same inputs under the same
drift of the host.  Not a pytest module.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUTPUTS = ("triples.tsv", "triples.tsv.discards", "stdout.txt")


def write_inputs(work: Path, seed: int, times: list[float]) -> None:
    """Write the lemma table and one corpus per k under ``work``, read-only."""
    import random

    sys.path.insert(0, str(HERE.parent / "perfbench"))
    import gen

    files, _ = gen.gen_corpus(random.Random(seed), gen.SIZES["full"]["corpus"])
    lines = files["corpus.mrg"].splitlines(keepends=True)
    inputs = {"lemmas.tsv": files["lemmas.tsv"]}
    for k in times:
        whole, part = divmod(round(k * len(lines)), len(lines))
        inputs[f"corpus-{k:g}.mrg"] = "".join(lines) * whole + "".join(lines[:part])
    for name, text in inputs.items():
        path = work / name
        path.write_text(text, encoding="utf-8")
        path.chmod(0o444)


def extract(src: Path, work: Path, corpus: str, pinned: bool) -> tuple[float, float, list[str]]:
    """Spawn one ``extract``: its wall time in s, peak RSS in MB and the
    digests of its outputs."""
    argv = [
        sys.executable, "-m", "selrestr", "extract", "--corpus", str(work / corpus),
        "--lemmas", str(work / "lemmas.tsv"), "--triples", str(work / "triples.tsv"),
    ]
    env = {**os.environ, "PYTHONPATH": str(src)}
    one_cpu = {min(os.sched_getaffinity(0))}
    with open(work / "stdout.txt", "wb") as out:
        start = time.perf_counter()
        child = subprocess.Popen(
            argv, env=env, stdout=out,
            preexec_fn=(lambda: os.sched_setaffinity(0, one_cpu)) if pinned else None,
        )
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"extract on {corpus} with {src} failed")
    digests = [hashlib.sha256((work / f).read_bytes()).hexdigest()[:16] for f in OUTPUTS]
    return wall, usage.ru_maxrss / 1024, digests


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--runs", type=int, default=3, help="runs per source, case and k")
    ap.add_argument("--times", type=float, nargs="+", default=[1, 4, 16],
                    help="how many times the corpus is repeated")
    ap.add_argument("--src", type=Path, action="append", help="package source directory")
    ap.add_argument("--write", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.write:
        write_inputs(args.write, args.seed, args.times)
        return 0
    sources = [p.resolve() for p in args.src or [HERE.parent / "src"]]
    print(f"CPUs this process may use: {len(os.sched_getaffinity(0))}")
    with tempfile.TemporaryDirectory(prefix="extract_scale_") as tmp:
        work = Path(tmp)
        subprocess.run(
            [sys.executable, __file__, "--seed", str(args.seed), "--write", tmp,
             "--times", *map(str, args.times)],
            check=True,
        )
        for k in args.times:
            corpus = f"corpus-{k:g}.mrg"
            size = (work / corpus).stat().st_size / 1e6
            cases = [(i, src, pinned) for i, src in enumerate(sources) for pinned in (False, True)]
            results: dict[tuple, list[tuple[float, float]]] = {c[::2]: [] for c in cases}
            digests: dict[tuple, set] = {c[::2]: set() for c in cases}
            for run in range(args.runs):
                for i, src, pinned in cases:
                    wall, peak, outs = extract(src, work, corpus, pinned)
                    results[i, pinned].append((wall, peak))
                    digests[i, pinned].add(tuple(outs))
                    print(f"k={k:g} ({size:.1f} MB) run {run} src {i}"
                          f"{' pinned' if pinned else ''}: {wall:.3f} s, {peak:.1f} MB, "
                          f"sha256 {' '.join(outs)}", flush=True)
            for (i, pinned), rows in results.items():
                walls, peaks = zip(*rows)
                print(f"k={k:g} src {i} ({sources[i]}){' pinned' if pinned else ''}: "
                      f"median {statistics.median(walls):.3f} s "
                      f"[{min(walls):.3f}, {max(walls):.3f}], "
                      f"peak {statistics.median(peaks):.1f} MB, "
                      f"{len(digests[i, pinned])} distinct outputs")
            if len(set().union(*digests.values())) != 1:
                print(f"k={k:g}: OUTPUTS DIFFER between cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
