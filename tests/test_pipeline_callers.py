"""Every function defined in ``src/sgclab`` has a caller in the pipeline.

ROADMAP aim 2 allows no code path that only tests can reach, apart from
the oracles in ``tests/oracles.py``.  This guard drives the command line
as a user does: every analysis on one model of each family at depth 2,
each with a ``freeness_g`` so that the family's ``parse`` runs, a repeat
run served from ``--cache-dir``, ``--matrix-dump``, and ``explain`` on
every topic.  Under ``sys.setprofile`` it records each function entered,
and requires every module-level function and class method found in the
package's source (walked with ``ast``) to be among them, apart from
``ALLOWED`` and the ``Model`` stubs.
"""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import sgclab
from sgclab import cli

PACKAGE = Path(sgclab.__file__).resolve().parent
SOURCES = {p.stem: p.read_text(encoding="utf-8")
           for p in sorted(PACKAGE.glob("*.py"))}

_TRACER_ROW = ("bound by a row of perfbench/tracer.py; ROADMAP item 1 deletes "
               "it together with that row")
ALLOWED = {
    "spectrum.Fragment.meet_pos": _TRACER_ROW,
    "exactla.operator_norm_enclosure": _TRACER_ROW,
    "exactla.sym_top_eig_enclosure": "helper of operator_norm_enclosure; "
                                     + _TRACER_ROW,
    "exactla._eigs_below": "helper of operator_norm_enclosure; " + _TRACER_ROW,
    "exactla.sqrt_enclosure": "helper of operator_norm_enclosure; "
                              + _TRACER_ROW,
    "cli.stable_body": "the benchmark's correctness gate: perfbench hashes "
                       "the stable body of every report it runs",
    "ideals.WordTrace.make": "the one validator of raw traces, the public "
                             "entry behind make_vword(model, pairs); the "
                             "pipeline builds traces from normal forms",
}

# (model, freeness_g): one model per family, elements in rendered form
CONFIGS = [
    ({"family": "free_abelian", "rank": 1}, [[1]]),
    ({"family": "free_monoid", "rank": 2}, ["ab"]),
    ({"family": "numerical", "generators": [2, 3]}, [1]),
]


def _is_stub(node):
    """A method whose body, past its docstring, only raises
    NotImplementedError: it states a family's contract, every family
    overrides it, so it is never entered."""
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)):
        body = body[1:]
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and ast.unparse(body[0].exc) in ("NotImplementedError",
                                              "NotImplementedError()"))


def defined(sources):
    """``{"module.function" or "module.Class.method": is a Model stub}``
    for every function defined at module level or in a class body."""
    out = {}
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef):
                out[f"{module}.{node.name}"] = False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        out[f"{module}.{node.name}.{item.name}"] = (
                            module == "models" and node.name == "Model"
                            and _is_stub(item))
    return out


def _pipeline(tmp):
    for k, (model, freeness_g) in enumerate(CONFIGS):
        config = tmp / f"config{k}.json"
        config.write_text(json.dumps({"model": model, "freeness_g": freeness_g,
                                      "caps": {"trace_depth": 2}}))
        report = tmp / f"report{k}.json"
        args = ["analyze", "--config", str(config), "--out", str(report),
                "--cache-dir", str(tmp / "cache"),
                "--matrix-dump", str(tmp / f"dump{k}")]
        first = cli.main(args)
        text = report.read_text()
        # the second run is served from the cache entry the first wrote
        assert cli.main(args) == first
        assert report.read_text() == text
        assert len(list((tmp / "cache").iterdir())) == k + 1
        for topic in cli.ANALYSES:
            assert cli.main(["explain", str(report), topic]) == 0


def _called_during(fn, *args):
    """Names, as ``defined`` spells them, of the package functions entered
    while ``fn(*args)`` runs."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            fn(*args)
    finally:
        sys.setprofile(previous)
    return {f"{path.stem}.{code.co_qualname}" for code in codes
            for path in [Path(code.co_filename).resolve()]
            if path.parent == PACKAGE}


@pytest.fixture(scope="module")
def called(tmp_path_factory):
    return _called_during(_pipeline, tmp_path_factory.mktemp("pipeline"))


def uncalled(called):
    return {name for name, stub in defined(SOURCES).items()
            if not stub and name not in ALLOWED and name not in called}


def test_every_function_in_src_has_a_pipeline_caller(called):
    assert uncalled(called) == set()
    # the allow-list holds only defined names that are still uncalled
    names = defined(SOURCES)
    assert {name for name in ALLOWED if name not in names} == set()
    assert {name for name in ALLOWED if name in called} == set()


def test_guard_reports_a_planted_function(called, monkeypatch):
    planted = ("\n\ndef planted_helper(x):\n    return x\n\n\n"
               "class Planted:\n    def method(self):\n        return 0\n")
    monkeypatch.setitem(SOURCES, "ideals", SOURCES["ideals"] + planted)
    assert uncalled(called) == {"ideals.planted_helper",
                                "ideals.Planted.method"}
