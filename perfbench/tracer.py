"""Run one ``selrestr`` command in-process with timing and counting wrappers.

Usage: ``python3 perfbench/tracer.py SPANS.json ARG...`` runs
``selrestr.cli.run([ARG...])`` and exits with its status.

Wrappers are installed at the names callers look up (``selrestr.cli.read_trees``,
``selrestr.learner.select_disjoint``, ``Taxonomy.related``, ...), so the
package itself is untouched.  Spans stay in memory with a parent link and
are written to SPANS.json when the command ends, together with the counts
and the names of targets that no longer exist or whose counts could not be
taken.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter


# (module, attribute, span name, counts hook(args, result) -> {counter: n})
SPANS = (
    ("selrestr.cli", "read_trees", "trees.parse", lambda a, r: {"trees.trees": len(r)}),
    (
        "selrestr.cli",
        "extract_corpus",
        "extract.extract",
        lambda a, r: {"extract.records": len(r), "extract.kept": sum(1 for x in r if x.kept)},
    ),
    ("selrestr.cli", "write_triples", "extract.write", None),
    ("selrestr.cli", "write_discards", "extract.write", None),
    ("selrestr.cli", "read_triples", "extract.read_triples", None),
    ("selrestr.cli", "accumulate", "stats.count", None),
    ("selrestr.cli", "read_counts", "stats.read_counts", None),
    ("selrestr.cli", "load_taxonomy_files", "taxonomy.load", None),
    (
        "selrestr.learner",
        "candidate_space",
        "learner.candidates",
        lambda a, r: {"learner.groups": 1},
    ),
    (
        "selrestr.learner",
        "score_candidates",
        "learner.score",
        lambda a, r: {"stats.score_calls": len(a[3]), "stats.unscorable": len(a[3]) - len(r)},
    ),
    (
        "selrestr.learner",
        "select_disjoint",
        "learner.select",
        lambda a, r: {"learner.candidates": len(a[0]), "learner.selected": len(r)},
    ),
    ("selrestr.cli", "write_restrictions", "learner.write", None),
    ("selrestr.cli", "read_gold", "evaluate.read", None),
    ("selrestr.cli", "read_restrictions", "evaluate.read", None),
    ("selrestr.cli", "evaluate_gold", "evaluate.eval", None),
)

# Called too often for a span each: only the calls are counted.
COUNTED = (
    ("selrestr.evaluate", "fulfills", "evaluate.fulfills_calls"),
    ("selrestr.taxonomy", "Taxonomy.related", "taxonomy.related_calls"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.missing: set[str] = set()
        self.calls: dict[str, list[int]] = {}

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), None, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self.stack.pop()
            if hook is not None:
                try:
                    for key, n in hook(args, result).items():
                        self.counts[key] = self.counts.get(key, 0) + n
                except (TypeError, IndexError, AttributeError):
                    self.missing.add(f"{name} counts")
            return result

        return traced

    def counted(self, name: str, fn):
        cell = self.calls[name] = [0]

        def counting(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counting

    def install(self) -> None:
        for module, attr, name, hook in SPANS:
            self._patch(module, attr, name, lambda fn, n=name, h=hook: self.wrap(n, fn, h))
        for module, attr, name in COUNTED:
            self._patch(module, attr, name, lambda fn, n=name: self.counted(n, fn))

    def _patch(self, module: str, attr: str, name: str, make) -> None:
        *path, last = attr.split(".")
        try:
            owner = importlib.import_module(module)
            for part in path:
                owner = getattr(owner, part)
            target = getattr(owner, last)
        except (ImportError, AttributeError):
            self.missing.add(name)
            return
        setattr(owner, last, make(target))

    def dump(self, path: str) -> None:
        for name, cell in self.calls.items():
            self.counts[name] = cell[0]
        data = {"spans": self.spans, "counts": self.counts, "missing": sorted(self.missing)}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import selrestr.cli

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.wrap("cli", selrestr.cli.run)(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
