"""The report's forms live in ``cli``: the analysis layers return plain
data, and a change to the report schema touches one module.

An ``ast`` walk over ``src/sgclab`` finds every function named ``to_json``
or ``render``, at any nesting.  No module may define ``to_json``, and
``render`` is defined only in ``models.py``, where it renders an element.
"""

import ast
from pathlib import Path

import sgclab

PACKAGE = Path(sgclab.__file__).resolve().parent


def _definers(name):
    return {path.stem for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name}


def test_report_forms_live_in_cli():
    assert _definers("to_json") == set()
    assert _definers("render") == {"models"}
