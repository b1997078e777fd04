"""Every public top-level function or class in the package drives something
in the package itself: it is referenced from another place in `src/`, or it
is one of the named exceptions below.  The package root imports nothing, so
it can count no name as used."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import symreduce
from symreduce import atlas
from symreduce.cli import main

PACKAGE = Path(symreduce.__file__).resolve().parent

# Public names that nothing else in `src/` references, each kept on purpose.
# A check that only tests need, such as the ratio bound or the order floor
# and |Out| cap the scan prunes with, lives in tests/oracles.py instead.
UNREFERENCED_ON_PURPOSE = {
    "implication_check": "the diagonal step of ROADMAP item 1 uses it",
    "diag_oddpart_test": "the tested per-group form of the diagonal scan predicate",
    "prime_powers_upto": "perfbench times it",
    "lambda_from": "acceptance criterion 7 reads it",
}


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def _public_definitions(modules):
    return {
        node.name
        for tree in modules.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _referenced_names(modules):
    names = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_drives_something():
    modules = _modules()
    unreferenced = _public_definitions(modules) - _referenced_names(modules)
    assert unreferenced == set(UNREFERENCED_ON_PURPOSE), (
        "derive or delete: wire each new name into the pipeline or delete it; "
        "drop an exception once something in src/ uses it"
    )


def test_package_root_imports_nothing(capsys):
    # In a fresh interpreter, `import symreduce` loads no layer module.
    probe = (
        "import json, sys, symreduce; print(json.dumps([symreduce.__version__, "
        "sorted(m for m in sys.modules if m.startswith('symreduce.'))]))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    child = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert json.loads(child.stdout) == ["0.1.0", []]
    # The report writes the root's version.
    main(["reduce"])
    assert json.loads(capsys.readouterr().out)["version"] == symreduce.__version__


def test_cuts_are_derived_not_written():
    # diagonal.M_RANGE comes from diag_m_admissible and product.M4_V0 from
    # power_gap_feasible; neither conclusion is written out in the source.
    literal = re.compile(r"[({]\s*(2|5)\s*,\s*6\s*[)}]")
    for path in PACKAGE.glob("*.py"):
        assert not literal.search(path.read_text()), path.name


def test_each_family_symbol_is_written_once():
    # atlas._SYMBOL is the one statement of the Lie family symbols: display,
    # parse and error texts all read it.
    tree = ast.parse((PACKAGE / "atlas.py").read_text())
    literals = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)]
    for symbol in atlas._SYMBOL.values():
        assert literals.count(symbol) == 1, symbol
