"""Command-line pipeline: extract, learn, eval, report.

Every option can also come from a JSON config file (``--config``); keys
use the option names with underscores and explicit flags win over the
file.  Outputs carry no timestamps, and learned-restriction files embed
the SHA-256 of each input, so identical inputs give byte-identical
results no matter how often the run is repeated; ``eval`` refuses a
restrictions file whose taxonomy or lexicon digest is not that of the
files it is given.

Exit status: 0 on success, 1 on validation or format errors, 2 on I/O
errors.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Callable, TextIO

from .evaluate import evaluate_gold, percentage, read_gold, read_labels
from .extract import (
    EMPTY_LEMMA_TABLE,
    ExtractionError,
    LEMMA_FAILURE,
    LemmaTable,
    NON_NOUN_HEAD,
    PENN,
    TagSet,
    extract_corpus,
    read_triples,
    write_discards,
    write_triples,
)
from .learner import LearnerConfig, learn_all, read_header, read_restrictions, write_restrictions
from .stats import EstimatorKind, ScoreKind, Scorer, accumulate, read_counts
from .taxonomy import load_taxonomy_files
from .trees import read_trees

TOOL_VERSION = "0.1.0"


def _as_int(eff: dict, key: str, fallback: int) -> int:
    value = eff.get(key, fallback)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ExtractionError(f"option {key} must be an integer, got {value!r}")
    return value


def _as_bool(eff: dict, key: str, fallback: bool) -> bool:
    value = eff.get(key, fallback)
    if not isinstance(value, bool):
        raise ExtractionError(f"option {key} must be true or false, got {value!r}")
    return value


def _as_str(eff: dict, key: str, fallback: str | None = None) -> str | None:
    value = eff.get(key, fallback)
    if value is not None and not isinstance(value, str):
        raise ExtractionError(f"option {key} must be a string, got {value!r}")
    return value


def _effective(args: argparse.Namespace) -> dict:
    """Config-file values overridden by whatever was given on the line."""
    eff: dict = {}
    if args.config is not None:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ExtractionError(f"config {args.config}: top level must be a JSON object")
        unknown = set(data) - args.allowed
        if unknown:
            raise ExtractionError(
                f"config {args.config}: unknown keys {', '.join(sorted(unknown))}"
            )
        eff.update(data)
    for key in args.allowed:
        value = getattr(args, key, None)
        if value is not None:
            eff[key] = value
    return eff


def _require(eff: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in eff]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ExtractionError(f"missing required option(s): {flags}")


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_hashed(path: str) -> tuple[str, str]:
    """The file's UTF-8 text and the SHA-256 of the very bytes decoded.

    The readers split lines with ``str.splitlines``, so CR and CRLF line
    ends need no newline translation."""
    data = Path(path).read_bytes()
    return data.decode("utf-8"), hashlib.sha256(data).hexdigest()


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write_outputs(outputs: list[tuple[str, Callable[[TextIO], None]]]) -> None:
    """Write each (path, writer) pair to a new file beside its path, then
    move all of them into place with ``os.replace``.

    No output is replaced until every one is complete, so a failed write
    leaves no partial or half-updated output behind.  An error names the
    output path, as opening that path directly would."""
    temps: list[str] = []
    path = None
    try:
        for path, write in outputs:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            head, tail = os.path.split(path)
            temp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            temps.append(temp)
            with open(fd, "w", encoding="utf-8") as f:
                write(f)
        for (path, _), temp in zip(outputs, temps):
            os.replace(temp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        for temp in temps:
            if os.path.exists(temp):
                os.unlink(temp)


# -- subcommands ---------------------------------------------------------


def cmd_extract(args: argparse.Namespace) -> int:
    eff = _effective(args)
    _require(eff, "corpus", "triples")
    lemmas = EMPTY_LEMMA_TABLE
    if _as_str(eff, "lemmas") is not None:
        lemmas = LemmaTable.from_file(eff["lemmas"])
    tags = PENN
    if _as_str(eff, "tagset") is not None:
        tags = TagSet.from_file(eff["tagset"])

    records = extract_corpus(read_trees(eff["corpus"]), lemmas, tags)
    kept = [r for r in records if r.kept]
    discards = [r for r in records if not r.kept]
    triples_path = eff["triples"]
    discards_path = eff.get("discards", triples_path + ".discards")
    _write_outputs(
        [
            (triples_path, lambda f: write_triples(kept, f)),
            (discards_path, lambda f: write_discards(discards, f)),
        ]
    )

    raw = len(records)
    non_noun = sum(1 for r in discards if r.discard_reason == NON_NOUN_HEAD)
    lemma_fail = sum(1 for r in discards if r.discard_reason == LEMMA_FAILURE)
    print(f"raw extractions  {raw}")
    print(f"non-noun heads   {non_noun} ({percentage(non_noun, raw)}%)")
    print(f"lemma failures   {lemma_fail} ({percentage(lemma_fail, raw)}%)")
    print(f"kept             {len(kept)} ({percentage(len(kept), raw)}%)")
    return 0


def cmd_learn(args: argparse.Namespace) -> int:
    eff = _effective(args)
    _require(eff, "taxonomy", "lexicon", "out")
    triples_path = _as_str(eff, "triples")
    counts_path = _as_str(eff, "counts")
    if (triples_path is None) == (counts_path is None):
        raise ExtractionError("exactly one of --triples and --counts is required")

    _, lexicon = load_taxonomy_files(eff["taxonomy"], eff["lexicon"])
    text, input_sha256 = _read_hashed(counts_path if counts_path is not None else triples_path)
    if counts_path is not None:
        table = read_counts(text)
    else:
        table = accumulate(read_triples(text))
    del text  # not needed while learning

    cfg = LearnerConfig(
        threshold=_as_int(eff, "threshold", 3),
        scorer=ScoreKind(_as_str(eff, "scorer", "assoc")),
        estimator=EstimatorKind(_as_str(eff, "estimator", "raw")),
        min_verb_support=_as_int(eff, "min_verb_support", 10),
        keep_nonpositive=_as_bool(eff, "keep_nonpositive", True),
    )
    restrictions = learn_all(Scorer(table, lexicon), cfg)
    header = {
        "tool": f"selrestr {TOOL_VERSION}",
        "scorer": cfg.scorer.value,
        "estimator": cfg.estimator.value,
        "threshold": str(cfg.threshold),
        "min_verb_support": str(cfg.min_verb_support),
        "keep_nonpositive": "true" if cfg.keep_nonpositive else "false",
        "input_sha256": input_sha256,
        "taxonomy_sha256": _sha256(eff["taxonomy"]),
        "lexicon_sha256": _sha256(eff["lexicon"]),
    }
    _write_outputs([(eff["out"], lambda f: write_restrictions(restrictions, f, header))])
    positions = {(sr.verb, sr.rel) for sr in restrictions}
    print(f"{len(restrictions)} restrictions across {len(positions)} verb positions")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    eff = _effective(args)
    _require(eff, "gold", "srs", "taxonomy", "lexicon")
    _, lexicon = load_taxonomy_files(eff["taxonomy"], eff["lexicon"])
    srs_text = _read(eff["srs"])
    header = read_header(srs_text)
    for option in ("taxonomy", "lexicon"):
        key = f"{option}_sha256"
        if key in header and header[key] != _sha256(eff[option]):
            raise ExtractionError(
                f"restrictions file {eff['srs']}: {key} does not match --{option} {eff[option]}"
            )
    gold = read_gold(_read(eff["gold"]))
    restrictions = read_restrictions(srs_text)
    labels = None
    if _as_str(eff, "labels") is not None:
        labels = read_labels(_read(eff["labels"]))
    report = evaluate_gold(gold, restrictions, lexicon, labels)
    fmt = _as_str(eff, "format", "text")
    if fmt not in ("text", "json"):
        raise ExtractionError(f"format must be text or json, got {fmt!r}")
    sys.stdout.write(report.render_json() if fmt == "json" else report.render_text())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    eff = _effective(args)
    _require(eff, "srs")
    restrictions = read_restrictions(_read(eff["srs"]))
    label_of = {}
    if _as_str(eff, "labels") is not None:
        for verb, rel, class_id, label, _count in read_labels(_read(eff["labels"])):
            label_of[verb, rel, class_id] = label.value
    rows = [("verb", "rel", "class", "score", "nouns", "support", "label")]
    for sr in restrictions:
        rows.append(
            (
                sr.verb,
                sr.rel.code,
                sr.class_id,
                f"{sr.score:.6f}",
                str(sr.n_nouns),
                str(sr.support),
                label_of.get((sr.verb, sr.rel, sr.class_id), "-"),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(7)]
    for row in rows:
        left = [row[i].ljust(widths[i]) for i in (0, 1, 2)]
        right = [row[i].rjust(widths[i]) for i in (3, 4, 5)]
        print("  ".join(left + right + [row[6]]).rstrip())
    return 0


# -- argument wiring -----------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="JSON", help="JSON file of option defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selrestr",
        description="Learn class-based selectional restrictions for verbs"
        " from a parsed corpus and a noun taxonomy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("extract", help="corpus trees -> co-occurrence triples")
    ex.add_argument("--corpus", help="bracketed-tree corpus file")
    ex.add_argument("--lemmas", help="form/POS/lemma table (TSV)")
    ex.add_argument("--tagset", metavar="JSON", help="tag-set override file")
    ex.add_argument("--triples", help="output triples file")
    ex.add_argument("--discards", help="discard sidecar (default: <triples>.discards)")
    _add_common(ex)
    ex.set_defaults(
        func=cmd_extract,
        allowed=frozenset({"corpus", "lemmas", "tagset", "triples", "discards"}),
    )

    ln = sub.add_parser("learn", help="triples -> selectional restrictions")
    ln.add_argument("--triples", help="triples file (one occurrence per line)")
    ln.add_argument("--counts", help="pre-aggregated counts file")
    ln.add_argument("--taxonomy", help="class hierarchy file")
    ln.add_argument("--lexicon", help="noun sense file")
    ln.add_argument("--out", help="output restrictions file")
    ln.add_argument("--threshold", type=int, help="min occurrences per candidate class")
    ln.add_argument(
        "--scorer", choices=[k.value for k in ScoreKind], help="association measure"
    )
    ln.add_argument(
        "--estimator",
        choices=[k.value for k in EstimatorKind],
        help="class count estimator",
    )
    ln.add_argument(
        "--min-verb-support",
        dest="min_verb_support",
        type=int,
        help="min triples per verb position",
    )
    ln.add_argument(
        "--keep-nonpositive",
        dest="keep_nonpositive",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="keep classes whose score is <= 0",
    )
    _add_common(ln)
    ln.set_defaults(
        func=cmd_learn,
        allowed=frozenset(
            {
                "triples",
                "counts",
                "taxonomy",
                "lexicon",
                "out",
                "threshold",
                "scorer",
                "estimator",
                "min_verb_support",
                "keep_nonpositive",
            }
        ),
    )

    ev = sub.add_parser("eval", help="restrictions vs. gold triples -> report")
    ev.add_argument("--gold", help="annotated held-out triples")
    ev.add_argument("--srs", help="restrictions file to evaluate")
    ev.add_argument("--taxonomy", help="class hierarchy file")
    ev.add_argument("--lexicon", help="noun sense file")
    ev.add_argument("--labels", help="per-class diagnostic label file")
    ev.add_argument("--format", choices=["text", "json"], help="report format")
    _add_common(ev)
    ev.set_defaults(
        func=cmd_eval,
        allowed=frozenset({"gold", "srs", "taxonomy", "lexicon", "labels", "format"}),
    )

    rp = sub.add_parser("report", help="pretty-print a restrictions file")
    rp.add_argument("--srs", help="restrictions file")
    rp.add_argument("--labels", help="per-class diagnostic label file")
    _add_common(rp)
    rp.set_defaults(func=cmd_report, allowed=frozenset({"srs", "labels"}))

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(run())
