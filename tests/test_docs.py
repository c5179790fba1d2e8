"""The README's quick-start transcripts and library example run as shown,
the package exports what it lists and uses or exports every public name
it defines, its code reads every public method and property of its
classes as an attribute, its modules parse under the oldest Python it
supports, and the exact reference in ``tests/oracle.py`` stays apart
from the package."""

import ast
import os
import shlex
import subprocess
import sys
from pathlib import Path

import selrestr
from selrestr import cli

ROOT = Path(__file__).resolve().parent.parent


def library_example() -> str:
    """The ```python block of the README's "Library use" section."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def quick_start_transcripts() -> list[tuple[list[str], str]]:
    """(argv, shown stdout) of each ``$ selrestr`` command in the README's
    "Quick start" section, with ``$D`` set as its ``D=`` line sets it."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Quick start", 1)[1]
    section = section.split("\n## ", 1)[0]
    variables: dict[str, str] = {}
    runs: list[tuple[list[str], str]] = []
    for block in section.split("```\n")[1::2]:
        lines = block.replace("\\\n", " ").splitlines()
        for line in lines:
            if not line.startswith("$ "):
                runs[-1][1].append(line)
                continue
            words = shlex.split(line[2:])
            for name, value in variables.items():
                words = [w.replace(f"${name}", value) for w in words]
            if "=" in words[0]:
                # A path relative to the checkout.
                name, value = words[0].split("=", 1)
                variables[name] = str(ROOT / value)
                continue
            assert words[0] == "selrestr"
            runs.append((words[1:], []))
    return [(argv, "".join(line + "\n" for line in shown)) for argv, shown in runs]


def test_readme_quick_start_transcripts(tmp_path, monkeypatch, capsys):
    runs = quick_start_transcripts()
    assert [argv[0] for argv, _ in runs] == ["extract", "learn", "report", "eval"]
    # The outputs are named relative to the working directory.
    monkeypatch.chdir(tmp_path)
    for argv, shown in runs:
        assert cli.run(argv) == 0, argv
        assert capsys.readouterr().out == shown, argv


def test_readme_library_example_runs():
    proc = subprocess.run(
        [sys.executable, "-c", library_example()],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    # one "verb rel class score" line per learned restriction
    lines = proc.stdout.splitlines()
    assert lines and all(len(line.split()) == 4 for line in lines), proc.stdout


def fresh(code: str) -> str:
    """The stdout of ``code`` run in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert (proc.returncode, proc.stderr) == (0, ""), code
    return proc.stdout


def test_every_exported_name_resolves():
    missing = [name for name in selrestr.__all__ if not hasattr(selrestr, name)]
    assert not missing
    assert len(set(selrestr.__all__)) == len(selrestr.__all__)
    # The package imports lazily: a bare import loads none of its modules;
    # each exported name is, on first access, the object its module
    # defines; and each module is an attribute before it is imported.
    loaded = fresh("import sys, selrestr; print(*sys.modules)").split()
    assert "selrestr" in loaded
    assert not [name for name in loaded if name.startswith("selrestr.")]
    assert fresh(
        "import sys, selrestr\n"
        "scorer = selrestr.stats.Scorer\n"
        "for name in selrestr.__all__:\n"
        "    value = getattr(selrestr, name)\n"
        "    assert getattr(sys.modules[value.__module__], name) is value, name\n"
        "print(scorer is selrestr.Scorer)"
    ) == "True\n"
    # Each module imports alone and first, so the modules import each
    # other with no cycle.
    for path in sorted((ROOT / "src" / "selrestr").glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            fresh(f"import selrestr.{path.stem}")


def test_oracle_imports_nothing_from_the_package():
    # The reference recomputes what it checks; a name taken from the
    # package would let a fault pass the differential tests.
    modules = []
    for node in ast.walk(ast.parse((ROOT / "tests" / "oracle.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert "fractions" in modules
    assert [m for m in modules if m.split(".")[0] in ("selrestr", "")] == []


def package_modules() -> list[tuple[str, ast.Module]]:
    """(file name, syntax tree) of each module of the package."""
    return [
        (path.name, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((ROOT / "src" / "selrestr").glob("*.py"))
    ]


def names_in(tree: ast.Module) -> set[str]:
    """Every name and attribute name that the module's code mentions."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    return named


def attribute_reads(tree: ast.Module) -> set[str]:
    """Every attribute name that the module's code reads, as in
    ``obj.name``: a member is reached through its object, so a local
    variable or parameter of the same name does not count."""
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_name_is_used_or_exported():
    # A public function or class that no package code names and that
    # ``__all__`` does not list exists only for the tests: move it into
    # tests/ or delete it.
    defined, named = {}, set()
    for module, tree in package_modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = module
        named |= names_in(tree)
    unused = {
        f"{module}:{name}" for name, module in defined.items()
        if name not in named and name not in selrestr.__all__
    }
    assert defined
    assert not unused


# No package code reads them, but the benchmark tracer does: it counts the
# calls of the first and counts kept records with the second.
MEMBERS_ONLY_THE_BENCHMARK_NAMES = {"taxonomy.py:Taxonomy.related", "triples.py:TripleRecord.kept"}


def test_every_public_member_is_used():
    # A public method or property of a package class that no package code
    # reads as an attribute exists only for the tests: move it into tests/
    # or delete it.
    members, read = set(), set()
    for module, tree in package_modules():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                members |= {
                    (f"{module}:{cls.name}.{node.name}", node.name) for node in cls.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                }
        read |= attribute_reads(tree)
    assert members
    assert {member for member, name in members if name not in read} == (
        MEMBERS_ONLY_THE_BENCHMARK_NAMES
    )


def test_only_tsv_names_a_line():
    # "<kind> line N: " is added in one place, selrestr.tsv: a reader raises
    # its message bare, or a RecordError for tsv to place.  Any f-string
    # with " line {...}: " in it counts.
    naming = set()
    for module, tree in package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr):
                parts = node.values
                for before, value, after in zip(parts, parts[1:], parts[2:]):
                    if (
                        isinstance(before, ast.Constant) and before.value.endswith(" line ")
                        and isinstance(value, ast.FormattedValue)
                        and isinstance(after, ast.Constant) and after.value.startswith(": ")
                    ):
                        naming.add(module)
    assert naming == {"tsv.py"}


def test_package_parses_under_the_oldest_supported_python():
    # pyproject.toml declares requires-python >= 3.10: syntax newer than
    # that (``except*``, type parameter lists, ...) must not creep in.
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=3.10"' in pyproject
    paths = sorted((ROOT / "src" / "selrestr").glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
