"""Self-test of the benchmark at a tiny input size.

Usage: ``python3 perfbench/selftest.py`` from the root of a checkout.

* ``BENCHMARK.json`` names the workloads and metrics ``run.py`` knows,
  and ``mapping.json`` maps every per-layer metric to end-to-end metrics
  and workloads that exist;
* every workload runs once untraced and once traced: each named metric is
  emitted and no command fails;
* one flipped byte in any output is reported as a failure of the command
  that wrote it;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
  ``run.py`` exits nonzero without printing a result.

Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types

import run

SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def check_spec() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    mapping = json.loads((run.BENCH / "mapping.json").read_text(encoding="utf-8"))
    problems = []
    if set(spec) != SPEC_KEYS:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    workloads = {w["name"] for w in spec["workloads"]}
    if workloads != set(run.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {sorted(workloads)} != run.py's")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    if {k: m["unit"] for k, m in e2e.items()} != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end names or units differ from run.py's")
    if max(m["bound"] for m in e2e.values()) != e2e["setup_s"]["bound"]:
        problems.append("setup_s does not have the largest bound")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != run.PER_LAYER_UNITS:
        problems.append("BENCHMARK.json per_layer names or units differ from run.py's")
    if set(mapping) != set(run.PER_LAYER_UNITS):
        problems.append("mapping.json does not cover exactly the per-layer metrics")
    for name, entry in mapping.items():
        if not set(entry["moves"]) <= set(e2e) or not set(entry["on"]) <= workloads:
            problems.append(f"mapping.json {name} names an unknown metric or workload")
    return problems


def check_workload(workload: str) -> list[str]:
    problems = []
    for trace, names in ((False, run.END_TO_END), (True, run.PER_LAYER_UNITS)):
        r = run.Run(workload, 0, size="tiny")
        metrics = run.measure(r, 0, trace)
        if set(metrics) != set(names):
            problems.append(f"{workload} trace={int(trace)} emits {sorted(metrics)}")
        problems += [f"{workload} trace={int(trace)}: {f}" for f in r.failures + r.problems]
    ok = {name: types.SimpleNamespace(code=0, stderr="") for name, _, _ in r.commands}
    for name, _, files in r.commands:
        for f in files + [f"{name}.stdout"]:
            path = r.work / f
            data = path.read_bytes()
            i = len(data) // 2
            path.write_bytes(data[:i] + bytes([data[i] ^ 1]) + data[i + 1:])
            before = len(r.failures)
            r.verify(ok)
            path.write_bytes(data)
            if not any(x.startswith(f"{name}:") for x in r.failures[before:]):
                problems.append(f"{workload}: a flipped byte in {f} was not reported")
    return problems


def check_bare() -> list[str]:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    skip = shutil.ignore_patterns("_work", "__pycache__")
    shutil.copytree(run.BENCH, bare / "perfbench", ignore=skip)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    argv = [sys.executable, "perfbench/run.py", "--workload", "corpus"]
    argv += ["--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run.py succeeded in a directory without the package"]
    return []


def main() -> int:
    problems = check_spec()
    for workload in run.WORKLOADS:
        problems += check_workload(workload)
    problems += check_bare()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
