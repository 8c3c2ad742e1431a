import ast
import re
import shlex
import shutil
import types
from pathlib import Path

import numpy as np
import pytest

import collective_recourse
from collective_recourse import (
    Centroids,
    LabeledBatch,
    PerturbationMatrix,
    QuerySpec,
    RecourseResult,
    SyntheticSpec,
    cli_main,
    oracle,
)

ROOT = Path(__file__).resolve().parent.parent


def test_all_lists_exactly_the_public_names_at_the_root():
    names = collective_recourse.__all__
    assert len(names) == len(set(names))
    bound = {
        name
        for name, value in vars(collective_recourse).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == bound
    homes = {getattr(collective_recourse, name).__module__ for name in names}
    assert oracle.__name__ not in homes
    # bench/tracer.py loads the cli module through the package import.
    assert "cli_main" in names


def test_readme_library_quickstart_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    ind_loss, col_loss, flipped = capsys.readouterr().out.split()
    assert float(col_loss) < float(ind_loss)
    assert flipped in ("True", "False")


def _readme_cli_commands():
    """The ``collective-recourse`` commands of README.md's CLI block, as argv lists."""
    section = (ROOT / "README.md").read_text().split("\n## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    lines = [line for line in block.splitlines() if line.startswith("collective-recourse ")]
    assert lines, "README.md's CLI block lists no command"
    return [shlex.split(line)[1:] for line in lines]


_README_COMMANDS = _readme_cli_commands()


@pytest.mark.parametrize(
    "argv", _README_COMMANDS, ids=[f"{argv[0]}-{i}" for i, argv in enumerate(_README_COMMANDS)]
)
def test_readme_cli_command_runs(argv, tmp_path, monkeypatch, capsys):
    # Each command as README.md prints it, from a directory that holds the data.
    shutil.copytree(ROOT / "data", tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv) == 0, capsys.readouterr().err


def test_every_imported_name_is_used():
    # The unused-import check (pyflakes' F401) without a linter: each name a
    # module imports must be read in that module or listed in its __all__
    # (the package root's re-exports), unless its line is marked "# noqa: F401".
    unused = []
    for path in sorted((ROOT / "src" / "collective_recourse").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        nodes = list(ast.walk(ast.parse(source)))
        used = {node.id for node in nodes if isinstance(node, ast.Name)}
        for node in nodes:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                used |= {element.value for element in node.value.elts}
        for node in nodes:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                        unused.append(f"{path.name}:{alias.lineno}: {name}")
    assert not unused


def test_every_private_module_name_is_read():
    # Dead private code without a linter: each module-level _name (function,
    # class or constant) defined in a package module must be read somewhere
    # in src/, as a name or as an attribute of its module.
    defined, read = [], set()
    for path in sorted((ROOT / "src" / "collective_recourse").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [target.id for target in nodes if isinstance(target, ast.Name)]
            else:
                targets = []
            defined += [
                f"{path.name}:{node.lineno}: {name}"
                for name in targets
                if name.startswith("_") and not name.startswith("__")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert len(defined) > 50
    assert [entry for entry in defined if entry.rsplit(" ", 1)[1] not in read] == []


_MU = np.array([[0.0, 1.0], [2.0, 3.0]])

# The records that hold arrays, each made anew from copies of the same arrays.
_ARRAY_RECORDS = {
    "LabeledBatch": lambda: LabeledBatch(_MU.copy(), np.array([0, 1]), 2),
    "SyntheticSpec": lambda: SyntheticSpec(_MU.copy(), 3, 1.0, seed=0),
    "Centroids": lambda: Centroids(_MU.copy()),
    "QuerySpec": lambda: QuerySpec(_MU[0].copy(), 1),
    "PerturbationMatrix": lambda: PerturbationMatrix(
        _MU.copy(), np.array([0, 1]), np.array([True, False])
    ),
    "RecourseResult": lambda: RecourseResult(
        _MU[0].copy(), 0.5, False, _MU[0].copy(), Centroids(_MU.copy())
    ),
}


@pytest.mark.parametrize("name", list(_ARRAY_RECORDS))
def test_records_that_hold_arrays_compare_by_identity(name):
    # A generated __eq__ would compare tuples of arrays, which raises, and a
    # generated __hash__ would hash an array, which raises too.
    one, other = _ARRAY_RECORDS[name](), _ARRAY_RECORDS[name]()
    assert one == one and not one == other and one != other
    assert hash(one) == hash(one)
    assert len({one, other}) == 2
