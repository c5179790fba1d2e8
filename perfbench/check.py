"""Correctness gate for the outputs of one workload iteration.

Three checks, each tied to the command whose output it reads:

* recorded digests: for a (workload, seed) listed in ``digests.json``
  every output must hash to the SHA-256 recorded there;
* invariants that hold for any seed, computed here without the package:
  ``extract`` writes exactly the records the generator planned, every
  ``learn`` output names its inputs' digests and keeps disjoint classes of
  enough support, and ``eval``'s counts, precision and recall match a
  recomputation from the gold, restrictions and lexicon files;
* within a run, every iteration's outputs hash the same as the first's.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from gen import closure

DIGESTS = Path(__file__).resolve().parent / "digests.json"

# Default --threshold of ``selrestr learn``, which every workload uses.
THRESHOLD = 3


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_recorded() -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def _rows(path: Path) -> list[list[str]]:
    return [
        line.split("\t")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]


class World:
    """Class parents and noun senses, read from the workload's input files."""

    def __init__(self, work: Path):
        taxonomy = _rows(work / "taxonomy.tsv")
        self.parents = {c: [] if ps == "-" else ps.split(",") for c, ps in taxonomy}
        self.senses = {n: ss.split(",") for n, ss in _rows(work / "lexicon.tsv")}

    def classes_of(self, noun: str) -> set[str]:
        return set().union(*(closure(self.parents, s) for s in self.senses.get(noun, ())))


def check_extract(work: Path, expected: dict[str, str]) -> list[str]:
    problems = []
    for name, text in expected.items():
        path = work / name
        if not path.is_file() or path.read_text(encoding="utf-8") != text:
            problems.append(f"{name} differs from the records the generator planned")
    return problems


def read_srs(work: Path) -> tuple[dict[str, str], list[list[str]]]:
    header = {}
    rows = []
    for line in (work / "srs.tsv").read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            header[key] = value
        elif line:
            rows.append(line.split("\t"))
    return header, rows


def check_learn(work: Path, world: World, input_name: str) -> list[str]:
    header, rows = read_srs(work)
    problems = []
    for key, name in (
        ("input_sha256", input_name),
        ("taxonomy_sha256", "taxonomy.tsv"),
        ("lexicon_sha256", "lexicon.tsv"),
    ):
        if header.get(key) != sha256_file(work / name):
            problems.append(f"srs.tsv header {key} is not the digest of {name}")
    if not rows:
        problems.append("srs.tsv holds no restrictions")
    by_position: dict[tuple[str, str], set[str]] = {}
    for row in rows:
        if len(row) != 6 or int(row[5]) < THRESHOLD:
            problems.append(f"srs.tsv row {row} is malformed or below the support threshold")
            continue
        by_position.setdefault((row[0], row[1]), set()).add(row[2])
    for (verb, rel), classes in by_position.items():
        for c in classes:
            if (closure(world.parents, c) - {c}) & classes:
                problems.append(f"srs.tsv ({verb}, {rel}): {c} is not disjoint from the others")
    summary = f"{len(rows)} restrictions across {len(by_position)} verb positions\n"
    if (work / "learn.stdout").read_text(encoding="utf-8") != summary:
        problems.append("learn.stdout does not match srs.tsv")
    return problems


def _ratio(value: Fraction | None) -> str:
    if value is None:
        return "N/A"
    return f"{float(value):.3f} ({value.numerator}/{value.denominator})"


def check_eval(work: Path, world: World) -> list[str]:
    gold = _rows(work / "gold.tsv")
    records = [(v, r, n) for v, r, n, *rest in gold if not rest or rest[1] == "ok"]
    _, srs = read_srs(work)
    by_position: dict[tuple[str, str], set[str]] = {}
    for row in srs:
        by_position.setdefault((row[0], row[1]), set()).add(row[2])
    hits = sum(
        1
        for v, r, n in records
        if by_position.get((v, r), set()) & world.classes_of(n)
    )
    restricted = sum(1 for v, r, _ in records if (v, r) in by_position)
    expect = {
        "gold triples": str(len(gold)),
        "evaluated": str(len(records)),
        "precision": _ratio(Fraction(hits, restricted) if restricted else None),
        "recall": _ratio(Fraction(hits, len(records)) if records else None),
    }
    report = {}
    for line in (work / "eval.stdout").read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("  ")
        report[key] = value.strip()
    return [
        f"eval.stdout {key!r} reads {report.get(key)!r}, expected {value!r}"
        for key, value in expect.items()
        if report.get(key) != value
    ]
