"""Wall time and own peak memory of each command of the ``perfbench``
workloads, spawned from a small process.

For each workload (``corpus``, ``learn_raw``, ``learn_sense``), a child
writes the seed-N ``perfbench/gen.py`` inputs, one copy per source, and
the workload's command sequence as ``perfbench/run.py`` runs it.  This
process then spawns ``run.py``'s set-up child (``python -c SETUP_CODE
taxonomy.tsv lexicon.tsv``, the ``setup`` rows) and each command
(``extract``, ``learn``, ``eval``) as ``python -m selrestr``, and prints
each run's wall time, the child's own peak RSS (``ru_maxrss`` from
``os.wait4``) and the SHA-256 of each of its outputs and of its standard
output.  A child's ``ru_maxrss`` starts at the RSS of this process, about
19 MB (Python 3.11, Linux x86-64), so a child whose own peak is lower
reads that floor.  It lies below ``run.py``'s floor, which ``run.py``'s
``peak_rss_mb`` reads for ``learn`` and ``eval``.

    python3 tests/command_cost.py [--seed 7] [--runs 7] [--workloads W ...] [--src DIR ...]

Each ``--src`` is a package source directory (default: this checkout's
``src``); with several, each run takes them in turn, starting from the
next one each run, so two versions of the package are compared on the
same inputs under the same drift of the host.  The children run with
``PYTHONDONTWRITEBYTECODE=1``, as in the benchmark, so each compiles the
package from source.  Not a pytest module.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("corpus", "learn_raw", "learn_sense")


def write_inputs(work: Path, seed: int, workloads: list[str], sources: int) -> None:
    """Write each workload's inputs under ``work/<workload>-<i>`` for each
    source i, and to ``work/plan.json`` each workload's children: the
    set-up child, then the commands, each as the interpreter's argv."""
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    import gen
    import run

    for workload in workloads:
        for i in range(sources):
            gen.generate(workload, seed, work / f"{workload}-{i}")
    setup = ("setup", ["-c", run.SETUP_CODE, "taxonomy.tsv", "lexicon.tsv"], [])
    plan = {w: [setup] + [(name, ["-m", "selrestr", *argv], files)
                          for name, argv, files in run.WORKLOADS[w][0]]
            for w in workloads}
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")


def command(src: Path, cwd: Path, name: str, argv: list[str], files: list[str]):
    """Spawn one child, ``python`` with ``argv``: its wall time in s, peak
    RSS in MB and the digests of its outputs and standard output."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    stdout = cwd / f"{name}.stdout"
    with open(stdout, "wb") as out:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env, stdout=out)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"{name} in {cwd} with {src} failed")
    digests = [hashlib.sha256((cwd / f).read_bytes()).hexdigest()[:16]
               for f in [*files, stdout.name]]
    return wall, usage.ru_maxrss / 1024, digests


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--runs", type=int, default=7, help="runs per source and workload")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--src", type=Path, action="append", help="package source directory")
    ap.add_argument("--write", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    sources = [p.resolve() for p in args.src or [HERE.parent / "src"]]
    if args.write:
        write_inputs(args.write, args.seed, args.workloads, len(sources))
        return 0
    with tempfile.TemporaryDirectory(prefix="command_cost_") as tmp:
        work = Path(tmp)
        subprocess.run(
            [sys.executable, __file__, "--seed", str(args.seed), "--write", tmp,
             "--workloads", *args.workloads, *(f"--src={s}" for s in sources)],
            check=True,
        )
        plan = json.loads((work / "plan.json").read_text(encoding="utf-8"))
        for workload, commands in plan.items():
            # (command, source) -> [(wall, peak)], and the distinct outputs.
            results: dict[tuple[str, int], list[tuple[float, float]]] = {}
            outputs: dict[str, set] = {name: set() for name, _, _ in commands}
            for run in range(args.runs):
                for k in range(len(sources)):
                    i = (run + k) % len(sources)
                    for name, argv, files in commands:
                        wall, peak, digests = command(
                            sources[i], work / f"{workload}-{i}", name, argv, files
                        )
                        results.setdefault((name, i), []).append((wall, peak))
                        outputs[name].add(tuple(digests))
                        print(f"{workload} run {run} src {i} {name}: {wall * 1000:.1f} ms, "
                              f"{peak:.1f} MB, sha256 {' '.join(digests)}", flush=True)
            for (name, i), rows in results.items():
                walls, peaks = zip(*rows)
                line = (f"{workload} {name} src {i}: median {statistics.median(walls) * 1000:.1f} ms "
                        f"[{min(walls) * 1000:.1f}, {max(walls) * 1000:.1f}], "
                        f"peak {statistics.median(peaks):.1f} MB")
                if i > 0:
                    base = [w for w, _ in results[name, 0]]
                    ratio = statistics.median(walls) / statistics.median(base)
                    faster = sum(w < b for w, b in zip(walls, base))
                    line += f", {ratio:.3f} of src 0, faster in {faster} of {len(walls)} runs"
                print(line)
            for name, seen in outputs.items():
                print(f"{workload} {name}: {len(seen)} distinct outputs"
                      + ("" if len(seen) == 1 else " -- OUTPUTS DIFFER"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
