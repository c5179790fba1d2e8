"""Benchmark of the ``selrestr`` command-line pipeline.

Usage::

    python3 perfbench/run.py --workload {corpus,learn_raw,learn_sense} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The inputs are generated from the seed
(``gen.py``); the package is run from ``src/`` as ``python -m selrestr``.
Each iteration runs the workload's commands one after another, each as a
child process of this one: a closed loop with one client and one child
at a time.  Iterations repeat until S seconds have passed.

The host's speed drifts by up to a factor of two over seconds to
minutes, and CPU time drifts with it.  So a fixed pure-Python loop, the
probe, is timed in this process right before and right after every
child, and every time metric is the child's wall time scaled to a host
on which one probe chunk takes ``REFERENCE_S``.  The raw wall and CPU
times and the probe times are kept in the run record.

With ``--trace 0`` the end-to-end metrics are reported, each the median
over the run's iterations.  With ``--trace 1`` untraced and traced
iterations alternate; the traced ones run each command under
``tracer.py`` and the per-layer metrics are medians over those.

The last line of standard output is the result object; the line before it
is the run record (machine, Python, commit, input digests, per-command
wall and CPU time, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import check
import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"

# Fixed cost every command pays before it reads its main input.
SETUP_CODE = "import sys, selrestr.cli as c; c.load_taxonomy_files(sys.argv[1], sys.argv[2])"
SETUPS_PER_ITERATION = 1

TAXONOMY = ["--taxonomy", "taxonomy.tsv", "--lexicon", "lexicon.tsv"]
# (command, argv, output files besides its stdout)
EXTRACT = (
    "extract",
    ["extract", "--corpus", "corpus.mrg", "--lemmas", "lemmas.tsv", "--triples", "triples.tsv"],
    ["triples.tsv", "triples.tsv.discards"],
)
LEARN_TRIPLES = (
    "learn",
    ["learn", "--triples", "triples.tsv", *TAXONOMY, "--out", "srs.tsv"],
    ["srs.tsv"],
)
LEARN_COUNTS = (
    "learn",
    ["learn", "--counts", "counts.tsv", "--scorer", "g2", "--estimator", "sense"]
    + [*TAXONOMY, "--out", "srs.tsv"],
    ["srs.tsv"],
)
EVAL = ("eval", ["eval", "--gold", "gold.tsv", "--srs", "srs.tsv", *TAXONOMY], [])

# Per workload: its commands in run order, and the input that ``learn``
# hashes into its header.
WORKLOADS = {
    "corpus": ([EXTRACT, LEARN_TRIPLES, EVAL], "triples.tsv"),
    "learn_raw": ([LEARN_TRIPLES, EVAL], "triples.tsv"),
    "learn_sense": ([LEARN_COUNTS, EVAL], "counts.tsv"),
}

END_TO_END = {"setup_s": "s", "learn_s": "s", "eval_s": "s", "total_s": "s", "peak_rss_mb": "MB"}

# Per-layer time metrics: the summed self time of the spans of that name.
SPAN_METRICS = {
    "trees.parse": "trees.parse_s",
    "extract.extract": "extract.extract_s",
    "extract.write": "extract.write_s",
    "extract.read_triples": "extract.read_triples_s",
    "stats.count": "stats.count_s",
    "stats.read_counts": "stats.read_counts_s",
    "taxonomy.load": "taxonomy.load_s",
    "learner.candidates": "learner.candidates_s",
    "learner.score": "learner.score_s",
    "learner.select": "learner.select_s",
    "learner.write": "learner.write_s",
    "evaluate.read": "evaluate.read_s",
    "evaluate.eval": "evaluate.eval_s",
    "cli": "cli.self_s",
}
COUNT_METRICS = (
    "trees.trees",
    "extract.records",
    "stats.score_calls",
    "stats.unscorable",
    "taxonomy.related_calls",
    "learner.groups",
    "learner.candidates",
    "learner.selected",
    "evaluate.fulfills_calls",
)
# Counters that feed a ratio, and the ratios: (numerator, denominator).
RATIO_METRICS = {
    "extract.kept_ratio": ("extract.kept", "extract.records"),
    "learner.selected_ratio": ("learner.selected", "learner.candidates"),
}
# Metrics counted by a span's wrapper, lost with it when its target is gone.
SPAN_COUNTS = {
    "trees.parse": ("trees.trees",),
    "extract.extract": ("extract.records", "extract.kept_ratio"),
    "learner.candidates": ("learner.groups",),
    "learner.score": ("stats.score_calls", "stats.unscorable"),
    "learner.select": ("learner.candidates", "learner.selected", "learner.selected_ratio"),
}
PER_LAYER_UNITS = (
    {name: "s" for name in SPAN_METRICS.values()}
    | {name: "count" for name in COUNT_METRICS}
    | {name: "ratio" for name in RATIO_METRICS}
    | {"trace.overhead_s": "s"}
)


# The probe: dict updates keyed by tuples of short strings, then a sort,
# the kind of work the package does.  Its working set is about 2 MB.
PROBE_WORDS = [f"{i:x}{'abcdefg'[i % 7]}" for i in range(20_000)]
PROBE_CHUNKS = 4
# Time of one probe chunk on the scale all time metrics are reported in;
# about the fastest the development host ran it (2-vCPU Xeon VM).
REFERENCE_S = 0.020


def probe_chunk() -> int:
    counts: dict[tuple[str, int], int] = {}
    for i in range(30_000):
        key = (PROBE_WORDS[(i * 7919) % 20_000], i % 3)
        counts[key] = counts.get(key, 0) + 1
    return len(sorted(counts))


def probe() -> float:
    """Mean time of one probe chunk, now."""
    start = perf_counter()
    for _ in range(PROBE_CHUNKS):
        probe_chunk()
    return (perf_counter() - start) / PROBE_CHUNKS


class Child:
    """Wall time, CPU time, peak RSS and exit status of one child process."""

    def __init__(self, argv: list[str], cwd: Path, stdout: Path | None = None):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = open(stdout, "wb") if stdout else subprocess.DEVNULL
        try:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.PIPE)
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall = perf_counter() - start
        finally:
            if stdout:
                out.close()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        proc.stderr.close()
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        self.stderr = err.decode("utf-8", "replace")


class Run:
    """One benchmark run: inputs, iterations, verdicts and samples."""

    def __init__(self, workload: str, seed: int, size: str = "full"):
        self.workload = workload
        self.seed = seed
        self.commands, self.learn_input = WORKLOADS[workload]
        self.work = WORK / (f"{workload}-{seed}" if size == "full" else f"{workload}-{seed}-{size}")
        shutil.rmtree(self.work, ignore_errors=True)
        start = perf_counter()
        self.inputs, self.expected = gen.generate(workload, seed, self.work, size)
        self.gen_s = perf_counter() - start
        # Output digests every iteration must match: the recorded ones when
        # use_recorded() finds them, else those of the first iteration.
        self.reference: dict[str, str | None] | None = None
        self.digest_checked = False
        self.world = check.World(self.work)
        self.verdicts: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failures: list[str] = []  # one entry per failed command
        self.problems: list[str] = []  # faults of the run that no command owns
        self.samples: dict[str, list[float]] = {}
        self.last_probe = probe()

    def use_recorded(self) -> None:
        recorded = check.load_recorded().get(self.workload, {}).get(str(self.seed))
        if recorded is None:
            return
        if recorded["inputs"] != self.inputs:
            sys.exit(f"inputs for {self.workload} seed {self.seed} differ from digests.json")
        self.reference = recorded["outputs"]
        self.digest_checked = True

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def child(self, argv: list[str], stdout: Path | None = None) -> Child:
        """Run a child between two probes; its ``scale`` turns its wall time
        into reference seconds."""
        child = Child(argv, self.work, stdout)
        after = probe()
        child.scale = REFERENCE_S / ((self.last_probe + after) / 2)
        self.last_probe = after
        self.add("probe_s", after)
        return child

    def setup(self) -> float:
        child = self.child([sys.executable, "-c", SETUP_CODE, "taxonomy.tsv", "lexicon.tsv"])
        if child.code != 0:
            sys.exit(f"set-up child failed: {child.stderr}")
        self.add("setup.wall", child.wall)
        return child.wall * child.scale

    def iteration(self, traced: bool = False) -> list[tuple[dict, float]]:
        """Run the command sequence once; when traced, return each
        command's span file with the command's scale."""
        prefix = [sys.executable] + ([str(BENCH / "tracer.py")] if traced else ["-m", "selrestr"])
        traces = []
        children = {}
        for name, argv, _ in self.commands:
            spans = self.work / f"{name}.spans.json"
            spans.unlink(missing_ok=True)
            extra = [str(spans)] if traced else []
            children[name] = self.child(prefix + extra + argv, self.work / f"{name}.stdout")
        total = sum(child.wall * child.scale for child in children.values())
        for name, _, _ in self.commands if traced else ():
            spans = self.work / f"{name}.spans.json"
            trace = json.loads(spans.read_text(encoding="utf-8")) if spans.is_file() else {}
            traces.append((trace, children[name].scale))
        tag = "traced." if traced else ""
        for name, child in children.items():
            self.add(f"{tag}{name}.s", child.wall * child.scale)
            self.add(f"{tag}{name}.wall", child.wall)
            self.add(f"{tag}{name}.cpu", child.cpu)
            self.add(f"{tag}{name}.rss_mb", child.rss_mb)
        self.add(f"{tag}peak_rss_mb", max(c.rss_mb for c in children.values()))
        self.add(f"{tag}total_s", total)
        self.verify(children)
        return traces

    def verify(self, children: dict[str, Child]) -> None:
        """Count a command as failed on a nonzero exit or a wrong output."""
        outputs = {}
        for name, _, files in self.commands:
            for f in files + [f"{name}.stdout"]:
                path = self.work / f
                outputs[f] = check.sha256_file(path) if path.is_file() else None
        if self.reference is None:
            self.reference = outputs
        for name, _, files in self.commands:
            self.attempted += 1
            child = children[name]
            own = tuple(outputs[f] for f in files + [f"{name}.stdout"])
            problems = []
            if child.code != 0:
                problems.append(f"exit status {child.code}: {child.stderr.strip()[-300:]}")
            problems += [
                f"{f} digest {outputs[f]} != expected {self.reference.get(f)}"
                for f in files + [f"{name}.stdout"]
                if outputs[f] != self.reference.get(f)
            ]
            if not problems:
                key = (name, own)
                if key not in self.verdicts:
                    self.verdicts[key] = self.invariants(name)
                problems = self.verdicts[key]
            if problems:
                self.failures.append(f"{name}: {'; '.join(problems)}")

    def invariants(self, name: str) -> list[str]:
        try:
            if name == "extract":
                return check.check_extract(self.work, self.expected)
            if name == "learn":
                return check.check_learn(self.work, self.world, self.learn_input)
            return check.check_eval(self.work, self.world)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]


def layer_values(traces: list[tuple[dict, float]]) -> tuple[dict[str, float], set[str]]:
    """Per-layer metrics of one traced iteration, from its commands' spans
    and the scales of the commands that wrote them."""
    values = {name: 0.0 for name in SPAN_METRICS.values()}
    counts: dict[str, int] = {}
    missing: set[str] = set()
    for trace, scale in traces:
        spans = trace.get("spans", [])
        self_time = [(end - start) * scale for _, start, end, _ in spans]
        for name, start, end, parent in spans:
            if parent >= 0:
                self_time[parent] -= (end - start) * scale
        for (name, *_), t in zip(spans, self_time):
            if name in SPAN_METRICS:
                values[SPAN_METRICS[name]] += t
        for key, n in trace.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + n
        missing.update(trace.get("missing", ()))
    for name in COUNT_METRICS:
        values[name] = counts.get(name, 0)
    for name, (num, den) in RATIO_METRICS.items():
        values[name] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    gone = set()
    for m in missing:
        span = m.removesuffix(" counts")
        if m in SPAN_METRICS:
            gone.add(SPAN_METRICS[m])
        gone.update(SPAN_COUNTS.get(span, ()))
        if m in PER_LAYER_UNITS:
            gone.add(m)
    return values, gone


def measure(run: Run, seconds: float, trace: bool) -> dict[str, dict]:
    run.setup()  # warm-up: byte-compiles the package before anything is timed
    layer_samples: list[dict[str, float]] = []
    gone: set[str] = set()
    deadline = perf_counter() + seconds
    while True:
        for _ in range(0 if trace else SETUPS_PER_ITERATION):
            run.add("setup_s", run.setup())
        run.iteration()
        if trace:
            values, missing = layer_values(run.iteration(traced=True))
            layer_samples.append(values)
            gone |= missing
        if perf_counter() >= deadline:
            break
    if not trace:
        s = run.samples
        values = {
            "setup_s": median(s["setup_s"]),
            "learn_s": median(s["learn.s"]),
            "eval_s": median(s["eval.s"]),
            "total_s": median(s["total_s"]),
            "peak_rss_mb": median(s["peak_rss_mb"]),
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace.overhead_s" or name in gone:
            continue
        series = [sample[name] for sample in layer_samples]
        if unit in ("count", "ratio") and len(set(series)) > 1:
            run.problems.append(f"count {name} differs between traced iterations: {series}")
        metrics[name] = {"value": median(series), "unit": unit}
    # Each traced iteration directly follows an untraced one: pair them, so
    # that drift in the machine's speed cancels.
    pairs = zip(run.samples["traced.total_s"], run.samples["total_s"])
    metrics["trace.overhead_s"] = {"value": median(t - u for t, u in pairs), "unit": "s"}
    for name in sorted(gone):
        print(f"per-layer metric {name} is missing: its wrapped target is gone", file=sys.stderr)
    return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def record(run: Run, args, metrics: dict) -> dict:
    commands = {}
    for name, _, _ in run.commands:
        for tag in ("", "traced."):
            walls = run.samples.get(f"{tag}{name}.wall")
            if walls:
                commands[f"{tag}{name}"] = {
                    "n": len(walls),
                    "scaled_s": median(run.samples[f"{tag}{name}.s"]),
                    "wall_s": median(walls),
                    "cpu_s": median(run.samples[f"{tag}{name}.cpu"]),
                    "peak_rss_mb": max(run.samples[f"{tag}{name}.rss_mb"]),
                }
    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "samples": {
            key: len(run.samples.get(key, ()))
            for key in ("setup_s", "total_s", "traced.total_s")
        },
        "setup_wall_s": median(run.samples["setup.wall"]),
        "probe_s": {
            "reference": REFERENCE_S,
            "min": min(run.samples["probe_s"]),
            "median": median(run.samples["probe_s"]),
            "max": max(run.samples["probe_s"]),
        },
        "gen_s": run.gen_s,
        "inputs_sha256": run.inputs,
        "digest_checked": run.digest_checked,
        "commands": commands,
        "failed_ratio": len(run.failures) / run.attempted,
        "failures": run.failures + run.problems,
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "selrestr" / "cli.py").is_file():
        print(f"no selrestr package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    run.use_recorded()
    metrics = measure(run, args.seconds, bool(args.trace))
    rec = record(run, args, metrics)
    print(json.dumps(rec))
    (WORK / f"record-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(rec | {"raw_samples": run.samples}, indent=2) + "\n", encoding="utf-8"
    )
    result = {
        "correct": not (run.failures or run.problems),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
