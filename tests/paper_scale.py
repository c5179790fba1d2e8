"""Time and peak memory of ``learn`` on a paper-scale world.

The world is ``worlds.paper_world`` at full size: 60,000 classes, 40,000
nouns with up to 33 senses and 200,000 triples over 400 verbs.  A child
writes its taxonomy, lexicon and triples files; this process then spawns
``learn`` on them for g2/sense and assoc/raw, with the default options,
and prints each run's wall time, the child's own peak RSS
(``ru_maxrss`` from ``os.wait4``) and the SHA-256 of the file it wrote.
This process stays small, so a child's peak is its own and not the
RSS it started from.

    python3 tests/paper_scale.py [--seed 0] [--runs 3] [--src DIR ...]

Each ``--src`` is a package source directory (default: this checkout's
``src``); with several, the runs alternate between them, so two
versions of the package are compared on the same inputs under the same
drift of the host.  Not a pytest module: tier-1 runs the generator at a
toy size only.
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
CONFIGS = (("g2", "sense"), ("assoc", "raw"))


def write_inputs(work: Path, seed: int) -> None:
    """Generate the world and write its three input files under ``work``."""
    import random

    sys.path.insert(0, str(HERE))
    from worlds import lexicon_text, paper_world, taxonomy_text, triples_text

    parents, senses, triples = paper_world(random.Random(seed))
    (work / "taxonomy.tsv").write_text(taxonomy_text(parents), encoding="utf-8")
    (work / "lexicon.tsv").write_text(lexicon_text(senses), encoding="utf-8")
    (work / "triples.tsv").write_text(triples_text(triples), encoding="utf-8")


def learn(src: Path, work: Path, out: Path, scorer: str, estimator: str) -> tuple[float, float]:
    """Spawn one ``learn``; returns its wall time in s and peak RSS in MB."""
    argv = [
        sys.executable, "-m", "selrestr", "learn",
        "--triples", str(work / "triples.tsv"),
        "--taxonomy", str(work / "taxonomy.tsv"),
        "--lexicon", str(work / "lexicon.tsv"),
        "--out", str(out), "--scorer", scorer, "--estimator", estimator,
    ]
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"learn {scorer}/{estimator} with {src} failed")
    return wall, usage.ru_maxrss / 1024


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--runs", type=int, default=3, help="runs per source and configuration")
    ap.add_argument("--src", type=Path, action="append", help="package source directory")
    ap.add_argument("--write", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.write:
        write_inputs(args.write, args.seed)
        return 0
    sources = [p.resolve() for p in args.src or [HERE.parent / "src"]]
    with tempfile.TemporaryDirectory(prefix="paper_scale_") as tmp:
        work = Path(tmp)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, __file__, "--seed", str(args.seed), "--write", tmp], check=True
        )
        print(f"inputs: seed {args.seed}, written in {time.perf_counter() - start:.2f} s")
        for scorer, estimator in CONFIGS:
            results: dict[int, list[tuple[float, float]]] = {k: [] for k in range(len(sources))}
            digests: dict[int, set[str]] = {k: set() for k in range(len(sources))}
            for run in range(args.runs):
                for k, src in enumerate(sources):
                    out = work / f"srs{k}.tsv"
                    wall, peak = learn(src, work, out, scorer, estimator)
                    digest = hashlib.sha256(out.read_bytes()).hexdigest()[:16]
                    results[k].append((wall, peak))
                    digests[k].add(digest)
                    print(f"{scorer}/{estimator} run {run} src {k}: "
                          f"{wall:.2f} s, {peak:.1f} MB, sha256 {digest}", flush=True)
            for k, src in enumerate(sources):
                walls, peaks = zip(*results[k])
                print(f"{scorer}/{estimator} src {k} ({src}): median {statistics.median(walls):.2f} s"
                      f" [{min(walls):.2f}, {max(walls):.2f}], peak {statistics.median(peaks):.1f} MB"
                      f" [{min(peaks):.1f}, {max(peaks):.1f}], outputs {sorted(digests[k])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
