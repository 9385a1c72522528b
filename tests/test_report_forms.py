"""The report's forms live in ``cli``: the analysis layers return plain
data, and a change to the report schema touches one module.

An ``ast`` walk over ``src/sgclab`` finds every function named
``to_json``, ``render`` or ``render_token``, at any nesting.  No module may
define ``to_json``.  ``render`` and ``render_token`` are defined only in
``models.py``: the first renders an element, the second writes an exact
token's report text, which depends on the model (a numerical token, its
Apery tuple, reads as its sporadic members and tail start).
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
    assert _definers("render_token") == {"models"}
