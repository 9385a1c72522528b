import dataclasses
import hashlib
import json
import os
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import normalized_n_body
from sgclab import cli, invsgp, spectrum
from sgclab.cli import (ANALYSES, ConfigError, RunConfig, explain, main,
                        report_to_json, run, stable_body)
from sgclab.ideals import WordTrace
from sgclab.models import FreeMonoidModel, ModelError, NumericalModel


def small_config(**over):
    doc = {
        "model": {"family": "numerical", "generators": [2, 3]},
        "analyses": ["ore", "independence"],
        "caps": {"trace_depth": 2, "radius": 20, "ore_len": 4},
        "seed": 5,
    }
    doc.update(over)
    return doc


# the analyses each single requested analysis runs, in run order
CLOSURES = {
    "ideals": ("ideals",),
    "independence": ("ideals", "independence"),
    "ore": ("ore",),
    "invsgp": ("ideals", "invsgp"),
    "spectrum": ("ideals", "invsgp", "spectrum"),
    "boundary": ("ideals", "invsgp", "spectrum", "boundary"),
    "freeness": ("ideals", "invsgp", "spectrum", "boundary", "freeness"),
    "fock": ("ideals", "invsgp", "fock"),
    "sc": ("ideals", "invsgp", "sc"),
}


def test_config_dependency_closure():
    assert tuple(CLOSURES) == ANALYSES
    for name, (_, reads) in cli.PIPELINE.items():
        assert all(ANALYSES.index(d) < ANALYSES.index(name) for d in reads)
        cfg = RunConfig.from_dict({"model": {"family": "free_abelian", "rank": 1},
                                   "analyses": [name]})
        assert cfg.analyses == CLOSURES[name]
    cfg2 = RunConfig.from_dict({"model": {"family": "free_abelian", "rank": 1}})
    assert cfg2.analyses == ANALYSES


def test_config_rejects_unknown():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"model": {}, "analyses": ["nope"]})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"model": {}, "caps": {"bogus": 1}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"analyses": ["ore"]})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"model": {}, "caps": {"radius": -1}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"model": {}, "caps": {"trace_depth": True}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"model": {}, "caps": {"samples": False}})
    # null means the model default, and only three caps have one
    for cap in ("trace_depth", "f_chain", "ore_len", "samples", "max_ideals"):
        with pytest.raises(ConfigError, match=cap):
            RunConfig.from_dict({"model": {}, "caps": {cap: None}})
    for cap in ("gen_len", "radius", "trunc"):
        assert RunConfig.from_dict({"model": {}, "caps": {cap: None}})
    for doc in ([1], "model", None,
                {"model": {}, "caps": [1, 2]},
                {"model": {}, "seed": "abc"},
                {"model": {}, "seed": True},
                {"model": {}, "seed": 1.5},
                {"model": {}, "analyses": "ore"},
                {"model": {}, "analyses": [1]},
                {"model": {}, "freeness_g": "a"},
                {"model": {}, "freeness_g": {"g": 1}}):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(doc)


def test_config_refuses_unknown_top_level_keys(tmp_path, capsys):
    # misspelt "analyses" and "caps" were once dropped, so this ran all
    # nine analyses at depth 2
    doc = {"model": {"family": "free_monoid", "rank": 2},
           "analysis": ["ore"], "cap": {"trace_depth": 9}}
    with pytest.raises(ConfigError, match="'analysis'") as err:
        RunConfig.from_dict(doc)
    for key in ("model", "analyses", "caps", "seed", "freeness_g", "out"):
        assert repr(key) in str(err.value)
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown config key 'analysis'")
    assert captured.out == ""


def test_config_refuses_freeness_g_without_freeness(tmp_path, capsys):
    # the elements were parsed, then ignored, yet still landed in the
    # report's config and the cache key
    doc = {"model": {"family": "free_monoid", "rank": 2},
           "analyses": ["ore"], "freeness_g": ["ab"]}
    with pytest.raises(ConfigError, match="'freeness_g'"):
        RunConfig.from_dict(doc)
    path = tmp_path / "unread.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: 'freeness_g'")
    assert captured.out == ""
    # with freeness in the run, or with no elements, the document is taken
    assert RunConfig.from_dict(dict(doc, analyses=["freeness"])).freeness_g
    assert RunConfig.from_dict(dict(doc, analyses=["ore"], freeness_g=None))


def test_config_refuses_an_empty_freeness_g(tmp_path, capsys):
    # an empty list tested nothing, yet read as a band-limited freeness
    # result with no verdicts and exit 0
    doc = {"model": {"family": "free_monoid", "rank": 2},
           "analyses": ["freeness"], "freeness_g": []}
    with pytest.raises(ConfigError, match="'freeness_g' must be null or a "
                                          "nonempty list, got \\[\\]"):
        RunConfig.from_dict(doc)
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: 'freeness_g' must be null or a "
                                   "nonempty list")
    assert captured.out == ""


def test_run_produces_tiers_and_ops():
    report, code = run(RunConfig.from_dict(small_config()))
    assert code == 0
    assert set(report["results"]) == {"ideals", "ore", "independence"}
    for name, res in report["results"].items():
        assert res["tier"] in ("exact", "band-limited", "inconclusive")
        assert "op" in res and "params" in res
    assert report["results"]["ore"]["result"]["status"] == "ore_up_to"
    assert report["results"]["independence"]["combinatorial"]["status"] == "witness"


def test_run_counterexample_and_boundary():
    doc = {"model": {"family": "free_monoid", "rank": 2},
           "analyses": ["ore", "boundary"], "seed": 1}
    report, code = run(RunConfig.from_dict(doc))
    assert code == 0
    assert report["results"]["ore"]["result"]["status"] == "counterexample"
    assert report["results"]["ore"]["result"]["pair"] == ["a", "b"]
    assert report["results"]["boundary"]["result"]["size"] == 4
    assert report["results"]["boundary"]["result"]["routes_agree"] is True


def test_run_boundary_singleton_for_chain():
    doc = {"model": {"family": "free_abelian", "rank": 1},
           "analyses": ["boundary"], "seed": 1}
    report, code = run(RunConfig.from_dict(doc))
    assert report["results"]["boundary"]["result"]["size"] == 1


def test_exit_code_two_when_inconclusive():
    # the default freeness grading list for the free monoid includes deep
    # inverse moves the depth-2 fragment honestly cannot resolve
    doc = {"model": {"family": "free_monoid", "rank": 2},
           "analyses": ["freeness"], "seed": 1}
    report, code = run(RunConfig.from_dict(doc))
    assert code == 2
    assert report["results"]["freeness"]["tier"] == "inconclusive"


def test_freeness_of_an_uncarried_grading_meeting_p_is_inconclusive():
    # N^2 is Ore and its one boundary point is fixed by every g, so (1, 1)
    # is not free; at depth 1 no word carries (1, 1) or (5, 5), and their
    # empty domains once read free, with exit 0
    statuses = {}
    for depth in (1, 2):
        doc = {"model": {"family": "free_abelian", "rank": 2},
               "analyses": ["freeness"], "caps": {"trace_depth": depth},
               "freeness_g": [[1, 0], [1, 1], [5, 5]]}
        report, code = run(RunConfig.from_dict(doc))
        verdicts = report["results"]["freeness"]["verdicts"]
        statuses[depth] = [v["status"] for v in verdicts]
        assert code == 2
        assert verdicts[2]["note"] == "no word carries it at the tested depth"
    assert statuses == {1: ["not-free", "inconclusive", "inconclusive"],
                        2: ["not-free", "not-free", "inconclusive"]}


def test_analyses_reading_one_that_raised_are_skipped(tmp_path, capsys):
    # the ideal cap is a declared "cannot certify": ideals is inconclusive,
    # and what reads it, directly or not, is skipped rather than crashing
    # on the store entry ideals never wrote
    doc = {"model": {"family": "free_monoid", "rank": 2},
           "caps": {"max_ideals": 3}}
    report, code = run(RunConfig.from_dict(doc))
    results = report["results"]
    assert code == 2 and "KeyError" not in json.dumps(results)
    assert results["ideals"]["tier"] == "inconclusive"
    assert results["ideals"]["error"].startswith("CapExceeded: ")
    assert results["ore"]["tier"] == "exact"
    skipped = {name: r["skipped"] for name, r in results.items()
               if "skipped" in r}
    assert skipped == {
        "independence": "reads ideals, which raised",
        "invsgp": "reads ideals, which raised",
        "spectrum": "reads ideals, which raised",
        "boundary": "reads spectrum, which was skipped",
        "freeness": "reads boundary, which was skipped",
        "fock": "reads ideals, which raised",
        "sc": "reads invsgp, which was skipped",
    }
    assert all(results[name]["tier"] == "inconclusive" for name in skipped)
    path = tmp_path / "r.json"
    path.write_text(report_to_json(report))
    assert main(["explain", str(path), "fock"]) == 0
    assert capsys.readouterr().out == (
        "fock: tier=inconclusive\n  skipped: reads ideals, which raised\n")


def test_internal_error_is_an_error_tier_and_exits_1(tmp_path, monkeypatch):
    # an exception that is no declared "cannot certify" is an error: the
    # run exits 1, the error names the innermost sgclab function it passed
    # through (the planted one lives in this test), what reads the failed
    # analysis is skipped, and the report is not cached
    def broken(ctx):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(spectrum, "boundary", broken)
    out, cache = tmp_path / "r.json", tmp_path / "cache"
    assert main(["analyze", "--family", "free_abelian", "--rank", "1",
                 "--analyses", "freeness", "--out", str(out),
                 "--cache-dir", str(cache)]) == 1
    report = json.loads(out.read_text())
    results = report["results"]
    assert results["boundary"] == {"op": "boundary", "tier": "error",
                                   "error": "ZeroDivisionError: planted",
                                   "where": "cli._an_boundary"}
    assert "  where: cli._an_boundary" in explain(report, "boundary")
    assert results["freeness"] == {"op": "freeness", "tier": "inconclusive",
                                   "skipped": "reads boundary, which raised"}
    assert results["spectrum"]["tier"] == "exact"
    assert not cache.exists() or os.listdir(cache) == []


def test_internal_error_names_its_innermost_package_function(monkeypatch):
    # an error raised below the package (here by a planted model kernel)
    # names the package function that called it; a cannot-certify result,
    # such as the guard band of sc on <3,5,7>, carries no such field
    doc = {"model": {"family": "numerical", "generators": [3, 5, 7]},
           "analyses": ["ideals", "sc"], "caps": {"trace_depth": 2}}
    report, code = run(RunConfig.from_dict(doc))
    sc = report["results"]["sc"]
    assert code == 2 and sc["error"].startswith("BandExhausted")
    assert "where" not in sc

    def planted(self, tok, other):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(NumericalModel, "exact_intersect", planted)
    report, code = run(RunConfig.from_dict(doc))
    assert code == 1
    # the lattice closure meets tokens itself, so the innermost sgclab
    # frame below the planted kernel is enumerate_ideals
    assert report["results"]["ideals"]["where"] == "ideals.enumerate_ideals"


def _refused(doc):
    """The message of the ModelError that ``run`` raises on ``doc``: run
    reports an analysis's own errors inside the report, so a raise comes
    from the start of the run."""
    with pytest.raises(ModelError) as err:
        run(RunConfig.from_dict(doc))
    return str(err.value)


def test_run_reports_foreign_freeness_grading_as_error():
    # a letter outside the rank refuses the run when it starts
    doc = {"model": {"family": "free_monoid", "rank": 2},
           "analyses": ["freeness"], "caps": {"trace_depth": 1},
           "freeness_g": ["a", "aC"], "seed": 1}
    assert "'C'" in _refused(doc)


@pytest.mark.parametrize("grading", [[0.5, 1], [True, 0], ["3", 1]],
                         ids=["float", "bool", "str"])
def test_run_reports_non_int_vector_grading_as_error(grading):
    # once coerced to [0, 1] and tested as that grading, then reported
    # inside the freeness result; now the run is refused when it starts
    doc = {"model": {"family": "free_abelian", "rank": 2},
           "analyses": ["freeness"], "caps": {"trace_depth": 2},
           "freeness_g": [grading], "seed": 0}
    assert _refused(doc).startswith("cannot parse")


def test_main_refuses_bad_freeness_grading(tmp_path, capsys):
    # exit 1 with an error line, as for any other malformed config field
    model = {"family": "free_abelian", "rank": 2}
    path = tmp_path / "bad.json"
    for bad in ([[0.5, 1]], [[1, 0], "x"], [[1, 0, 0]]):
        path.write_text(json.dumps({"model": model, "freeness_g": bad}))
        capsys.readouterr()
        assert main(["analyze", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
    path.write_text(json.dumps({"model": {"family": "free_monoid", "rank": 2},
                                "freeness_g": ["aC"]}))
    assert main(["analyze", "--config", str(path)]) == 1
    assert "'C'" in capsys.readouterr().err


@pytest.mark.parametrize("model,gradings,twice", [
    ({"family": "free_monoid", "rank": 2}, ["ab", "ab"], "'ab'"),
    ({"family": "free_monoid", "rank": 2}, ["aAb", "a", "b"], "'b'"),
    ({"family": "free_abelian", "rank": 2}, [[1, 0], [0, 1], [1, 0]],
     "[1, 0]"),
    ({"family": "numerical", "generators": [2, 3]}, [2, 3, 2], "2"),
], ids=["F2+ ab", "F2+ aAb", "N^2", "<2,3>"])
def test_run_refuses_a_grading_listed_twice(tmp_path, capsys, model,
                                            gradings, twice):
    # one grading listed twice was tested and counted twice; the check
    # reads parsed elements, so "aAb" is the grading "b"
    doc = {"model": model, "analyses": ["freeness"],
           "caps": {"trace_depth": 1}, "freeness_g": gradings}
    assert _refused(doc) == f"'freeness_g' lists {twice} twice"
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: 'freeness_g' lists {twice} twice\n"
    assert captured.out == ""


@pytest.mark.parametrize("model,unit", [
    ({"family": "free_monoid", "rank": 2}, ""),
    ({"family": "free_monoid", "rank": 2}, "aA"),
    ({"family": "numerical", "generators": [2, 3]}, 0),
    ({"family": "free_abelian", "rank": 2}, [0, 0]),
], ids=["F2+ empty word", "F2+ aA", "<2,3>", "N^2"])
def test_main_refuses_identity_freeness_grading(tmp_path, capsys, model,
                                                unit):
    # the identity fixes every character, so testing it is a config
    # mistake: refused when the run starts, not reported as an internal
    # error of the freeness probe
    path = tmp_path / "unit.json"
    path.write_text(json.dumps({"model": model, "freeness_g": [unit],
                                "caps": {"trace_depth": 1}}))
    assert main(["analyze", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert "identity" in captured.err


def test_run_validates_once_per_input(monkeypatch):
    # elements are validated where they come in, not inside arithmetic;
    # a check inside mul/in_p would run ~300k times on this config
    calls = []
    orig = FreeMonoidModel.validate

    def counted(self, a):
        calls.append(a)
        return orig(self, a)
    monkeypatch.setattr(FreeMonoidModel, "validate", counted)
    doc = {"model": {"family": "free_monoid", "rank": 2},
           "caps": {"trace_depth": 2}, "seed": 0}
    report, _ = run(RunConfig.from_dict(doc))
    assert all("error" not in r for r in report["results"].values())
    assert 0 < len(calls) < 1000


def test_run_reaches_the_traced_theta_and_filter_calls(monkeypatch):
    # the benchmark tracer wraps theta_apply and Fragment.is_filter, reads
    # each theta result's status, and fails on a traced name no workload
    # calls: the law check reads tables, the boundary and freeness paths
    # must still go through both
    results, filters = [], []
    apply, is_filter = spectrum.theta_apply, spectrum.Fragment.is_filter

    def counted_apply(ctx, g, chi):
        results.append(apply(ctx, g, chi))
        return results[-1]

    def counted_filter(self, bits):
        filters.append(bits)
        return is_filter(self, bits)
    monkeypatch.setattr(spectrum, "theta_apply", counted_apply)
    monkeypatch.setattr(spectrum.Fragment, "is_filter", counted_filter)
    doc = {"model": {"family": "numerical", "generators": [3, 5, 7]},
           "caps": {"trace_depth": 2}, "seed": 0}
    run(RunConfig.from_dict(doc))
    assert results and filters
    assert {r.status for r in results} <= {"image", "outside", "ambiguous"}


def _pullbacks_read_as_full(monkeypatch):
    columns = spectrum.ThetaContext._columns

    def planted(self, z):
        return columns(self, self.model.exact_full())
    monkeypatch.setattr(spectrum.ThetaContext, "_columns", planted)


def _unit_table_read_from_another_grading(monkeypatch):
    carriers = spectrum.ThetaContext.carriers

    def planted(self, g):
        if g == self.model.unit:
            g = self.gradings()[0]
        return carriers(self, g)
    monkeypatch.setattr(spectrum.ThetaContext, "carriers", planted)


def _star_keeps_the_grading(monkeypatch):
    star = invsgp.star

    def planted(v):
        return dataclasses.replace(star(v), grading=v.grading)
    monkeypatch.setattr(invsgp, "star", planted)


def _compose_swaps_the_traces(monkeypatch):
    def planted(v, w):
        return WordTrace(w.trace.pairs + v.trace.pairs)
    monkeypatch.setattr(invsgp, "_composite_trace", planted)


def _compose_swaps_the_gradings(monkeypatch):
    compose = invsgp.compose

    def planted(v, w):
        vw = compose(v, w)
        if vw.is_zero:
            return vw
        return dataclasses.replace(
            vw, grading=vw.model.mul(w.grading, v.grading))
    monkeypatch.setattr(invsgp, "compose", planted)


def _unit_words_range_over_everything(monkeypatch):
    word = invsgp._word

    def planted(model, trace, grading, dom, ran):
        if grading == model.unit:
            ran = model.exact_full()
        return word(model, trace, grading, dom, ran)
    monkeypatch.setattr(invsgp, "_word", planted)


@pytest.mark.parametrize("plant,analysis,law", [
    (_unit_table_read_from_another_grading, "spectrum", "identity_law"),
    (_star_keeps_the_grading, "invsgp", "vv*v=v"),
    (_compose_swaps_the_gradings, "invsgp", "grading_multiplicative"),
    (_unit_words_range_over_everything, "invsgp",
     "trivially_graded_collapse"),
], ids=["identity", "involution", "grading", "collapse"])
def test_every_reported_law_can_fail(monkeypatch, plant, analysis, law):
    # each law reads true on working code; a planted defect of the kind it
    # guards against makes it false and its analysis inconclusive
    doc = {"model": {"family": "free_monoid", "rank": 2},
           "analyses": ["invsgp", "spectrum"], "caps": {"trace_depth": 2},
           "seed": 0}
    report, code = run(RunConfig.from_dict(doc))
    result = report["results"][analysis]
    assert result.get("laws", result)[law] is True
    assert result["tier"] == "exact"
    plant(monkeypatch)
    report, code = run(RunConfig.from_dict(doc))
    result = report["results"][analysis]
    assert result.get("laws", result)[law] is False
    assert result["tier"] == "inconclusive" and code == 2


def _no_bits_are_a_filter(monkeypatch):
    monkeypatch.setattr(spectrum.Fragment, "is_filter", lambda self, bits: False)


@pytest.mark.parametrize("plant", [
    _no_bits_are_a_filter, _pullbacks_read_as_full, _compose_swaps_the_traces,
], ids=["is_filter", "pullbacks", "traces"])
def test_settled_bits_that_are_no_filter_are_an_internal_error(monkeypatch,
                                                               plant):
    # a word is a partial bijection, so exact kernels settle every image
    # to a filter.  Bits settled everywhere that are no filter (here every
    # filter test fails, every pullback reads as P, or a composite's trace
    # is swapped) are a defect of the package: spectrum reports an error,
    # and the boundary and the freeness probe never read them as
    # fragment-edge evidence
    doc = {"model": {"family": "free_monoid", "rank": 2},
           "analyses": ["freeness"], "caps": {"trace_depth": 2}, "seed": 0}
    plant(monkeypatch)
    report, code = run(RunConfig.from_dict(doc))
    results = report["results"]
    assert code == 1
    assert results["spectrum"]["tier"] == "error"
    assert results["spectrum"]["where"] == "spectrum.table"
    assert results["spectrum"]["error"].startswith("ModelError: theta at")
    assert results["boundary"]["skipped"] == "reads spectrum, which raised"
    assert results["freeness"]["skipped"] == "reads boundary, which was skipped"


def test_reports_are_deterministic():
    cfg = RunConfig.from_dict(small_config(analyses=list(ANALYSES)))
    r1, _ = run(cfg)
    r2, _ = run(cfg)
    assert stable_body(r1) == stable_body(r2)
    assert "timings" in r1 and set(r1["timings"]) == set(r1["results"])


def _depth(model, depth=2):
    return {"model": model, "caps": {"trace_depth": depth}}


# sha256 of the stable body of `run` at seed 0, all analyses unless the
# config names them.  A change of representation must leave every report
# byte-identical.
GOLDEN_STABLE_BODIES = (
    (_depth({"family": "free_abelian", "rank": 1}),
     "c4acd94a6a635f85d73f7ea67f99610a08be734caa9ef455888e385b261dcc70"),
    (_depth({"family": "free_monoid", "rank": 2}),
     "3300ff329e29d027050657b70e924ab2ea96dceda4cab3d9665cb1e72af6132f"),
    (_depth({"family": "numerical", "generators": [2, 3]}),
     "e6b88058fafa98be0e9bffc5f6b06a49f06354453e251b144a601d39c712e36d"),
    # a config whose theta pullbacks fall outside the fragment: 307 of them
    # read 42 distinct tokens
    (_depth({"family": "numerical", "generators": [3, 5, 7]}),
     "2a4ce2518eea16d245c0b5b20217242cb505f24fcd9069643758e54d5146779e"),
    # the config where fock and sc take the most time
    (_depth({"family": "free_monoid", "rank": 3}),
     "10956b578edea0a80dc70e9cdd72399eaca23403db87104e8667aba05140b4f9"),
    (_depth({"family": "free_abelian", "rank": 2}),
     "92718cb80690121d266b6e1fa23cce700cb299e2d8ed08aaeba0292b19febd0a"),
    # the deepest word enumeration
    ({"model": {"family": "free_monoid", "rank": 2},
      "caps": {"trace_depth": 6},
      "analyses": ["ideals", "independence", "ore", "invsgp"]},
     "12367ddd5b67bdf973e3497b9ae9d1d477942fe1f4fb2102172e5a4c86648215"),
    # the depth-3 half of the small sweep
    (_depth({"family": "free_abelian", "rank": 1}, 3),
     "7ddce154231f66c623bfc77612fee6c12fc60066c96cfb7345ff94276a3ea67a"),
    (_depth({"family": "free_abelian", "rank": 2}, 3),
     "02156fa33c1e987f3041c6d9c04245c0fed3762844a35643c867b0726417cc06"),
    (_depth({"family": "free_monoid", "rank": 2}, 3),
     "cfd5c3804bd944d918aa7329e8506d58346a41e3dc5431e998b9d2af45490e6a"),
    (_depth({"family": "numerical", "generators": [2, 3]}, 3),
     "8f33b2e31da0cb9b4e9dedd871fb3b8d23082bcdf7f5f23d1eecfd703d7c7e70"),
    # the deepest numerical config: theta pulls back ideals at depth 3
    (_depth({"family": "numerical", "generators": [3, 5]}, 3),
     "eb30effbc2c05c5242018cf7d7b515e8b40ad8caba531afcde4c717cb3fa81df"),
    # the heaviest pullback scan: 1,809 pullbacks outside the fragment, 198
    # distinct tokens
    (dict(_depth({"family": "numerical", "generators": [4, 7, 9]}),
          analyses=["spectrum", "boundary", "freeness"]),
     "48ae24ed6349e57033e0e5ee2931ae1e633329ce28ff195400fec43d4a001bd5"),
    # the deeper ore, boundary and freeness runs ROADMAP's baseline hashes
    (dict(_depth({"family": "free_monoid", "rank": 3}, 4),
          analyses=["ore", "boundary", "freeness"]),
     "11eb0681d8bb054e3b3e5ffccfbfeb59f5eb475b1ba4f14267f6ce2497c4f5a4"),
    (dict(_depth({"family": "free_monoid", "rank": 2}, 6),
          analyses=["ore", "boundary", "freeness"]),
     "63b3b3e9603dd2999c585e4f5928c92f73e775a3ec3569d55563f5ca329989e2"),
    (dict(_depth({"family": "numerical", "generators": [4, 7, 9]}, 3),
          analyses=["ore", "boundary", "freeness"]),
     "659356683701796616bcc5fe96fd7798e581efaf7759e89f75f3c44b71853fad"),
    (_depth({"family": "numerical", "generators": [4, 7, 9]}),
     "e1205fd5237fcac8a307b3b6a975500dfca6e162d36fd7e55332a446bf644080"),
    # route two of the boundary degenerates
    (_depth({"family": "numerical", "generators": [4, 5]}),
     "511e81db7633862fc18332225bd42fedbcca889394834ec20a8dd7cc08609f43"),
    # N as a numerical semigroup: one residue class
    (_depth({"family": "numerical", "generators": [1]}, 3),
     "181c8d59070aeb383755a5782ed98e75fb685cfb4b058dd49ff5329e399dff26"),
)


@pytest.mark.parametrize(
    "config,digest", GOLDEN_STABLE_BODIES,
    ids=["N^1", "F2+", "<2,3>", "<3,5,7>", "F3+", "N^2", "F2+ depth 6",
         "N^1 depth 3", "N^2 depth 3", "F2+ depth 3", "<2,3> depth 3",
         "<3,5> depth 3", "<4,7,9> spectrum", "F3+ depth 4 o+b+f",
         "F2+ depth 6 o+b+f", "<4,7,9> depth 3 o+b+f", "<4,7,9>", "<4,5>",
         "<1> depth 3"])
def test_stable_body_matches_golden_hash(config, digest):
    doc = dict(config, seed=0)
    report, _ = run(RunConfig.from_dict(doc))
    assert hashlib.sha256(stable_body(report).encode()).hexdigest() == digest
    # the whole report, timings floats included, is the text json.dumps
    # writes
    assert report_to_json(report) == \
        json.dumps(report, sort_keys=True, indent=2) + "\n"


# N inside Z through three kernels that share no token code
N_MODELS = ({"family": "numerical", "generators": [1]},
            {"family": "free_abelian", "rank": 1},
            {"family": "free_monoid", "rank": 1})


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_three_kernels_of_n_give_one_report(depth):
    # every analysis, with the caps each model reads pinned alike; the
    # reports agree once elements are ints and tokens are blanked
    got = []
    for model in N_MODELS:
        doc = {"model": model, "seed": 0,
               "caps": {"trace_depth": depth, "radius": 8, "trunc": 8,
                        "gen_len": 2}}
        report, code = run(RunConfig.from_dict(doc))
        got.append((code, normalized_n_body(stable_body(report))))
    assert got[1] == got[0]
    assert got[2] == got[0]


@pytest.mark.parametrize(
    "model", [{"family": "free_abelian", "rank": 1},
              {"family": "numerical", "generators": [2, 3]}],
    ids=["N^1", "<2,3>"])
def test_reported_ideals_list_members_up_to_the_cap_radius(model):
    # the report's radius cap, not a model default, sizes every members
    # prefix: lattice nodes and the domains and ranges of exported words
    doc = {"model": model, "analyses": ["ideals", "invsgp"],
           "caps": {"trace_depth": 2, "radius": 20}, "seed": 0}
    cfg = RunConfig.from_dict(doc)
    report, _ = run(cfg)
    m = cli.build_model(cfg.model_config)
    assert m.default_radius != 20
    words = report["results"]["invsgp"]["export"]["members"]
    rendered = (report["results"]["ideals"]["lattice"]["nodes"]
                + [w[side] for w in words for side in ("dom", "ran")])
    assert len(rendered) > 2 * len(words) > 0
    for ideal in rendered:
        assert ideal["radius"] == 20
        assert all(m.length(m.parse(a)) <= 20 for a in ideal["members_prefix"])


@pytest.mark.parametrize("m", [0, 1, 20, 21, 25, 34, 110, 769])
def test_index_pairs_match_sample_of_sorted_pair_list(m):
    # same pairs, same order and same generator state as drawing from the
    # full sorted list of pairs
    for seed in ("(0, 'invsgp')", "(7, 'invsgp')", 2026):
        new, old = random.Random(seed), random.Random(seed)
        pool = list(range(m))
        pairs = [(i, j) for i in pool for j in pool]
        if len(pairs) > 400:
            pairs = old.sample(sorted(pairs), 400)
        assert cli._index_pairs(new, m) == pairs
        assert new.getstate() == old.getstate()


def test_explain_topics():
    cfg = RunConfig.from_dict(small_config(analyses=list(ANALYSES)))
    report, _ = run(cfg)
    for topic in report["results"]:
        text = explain(report, topic)
        assert topic in text and "tier=" in text
    assert "union of" in explain(report, "independence")
    with pytest.raises(ConfigError):
        explain(report, "nope")


def test_main_end_to_end(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out_path = tmp_path / "report.json"
    cfg_path.write_text(json.dumps(small_config(out=str(out_path))))
    code = main(["analyze", "--config", str(cfg_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["schema_version"] == 1
    assert report["tool"]["name"] == "sgclab"


def test_main_flag_overrides(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["analyze", "--family", "free_monoid", "--rank", "2",
                 "--analyses", "ore", "--ore-len", "2", "--seed", "9",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["model"] == {"family": "free_monoid", "rank": 2}
    assert report["results"]["ore"]["result"]["status"] == "counterexample"


def test_main_explain_roundtrip(tmp_path, capsys):
    out = tmp_path / "r.json"
    main(["analyze", "--family", "numerical", "--generators", "2,3",
          "--analyses", "sc", "--seed", "2", "--out", str(out)])
    capsys.readouterr()
    code = main(["explain", str(out), "sc"])
    assert code == 0
    text = capsys.readouterr().out
    assert "verdict" in text and "->" in text


# sha256 of each dumped shift matrix at default caps: they pin the triplet
# order and the n/d rendering of the documented dump format
MATRIX_DUMP_DIGESTS = (
    (["free_abelian", "--rank", "1"], {
        "shift_0.txt":
        "577bc5bc1eb35c1d0e8b259f55ee8d3c27ef825a66094c049208b37a5fbbeba8"}),
    (["free_monoid", "--rank", "2"], {
        "shift_0.txt":
        "1b6e53ef2f023df07719027b3fb0a0ce8a60a7be9d3b2c07c9f97048b606308f",
        "shift_1.txt":
        "23e86ea190cf7e969bf9ff8eb3ad607200cc86101378be6138f74a9d752f5d84"}),
)


def test_main_matrix_dump(tmp_path):
    for k, (family, digests) in enumerate(MATRIX_DUMP_DIGESTS):
        out = tmp_path / f"r{k}.json"
        dump = tmp_path / f"mats{k}"
        code = main(["analyze", "--family", *family,
                     "--analyses", "ore", "--out", str(out),
                     "--matrix-dump", str(dump)])
        assert code == 0
        text = (dump / "shift_0.txt").read_text()
        assert text.startswith("# truncop ")
        assert "1 0 1/1" in text
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in dump.iterdir()} == digests


def test_main_refuses_a_matrix_dump_beyond_the_truncation(tmp_path, capsys):
    # the generator 3 reaches past a truncation of 2: exit 1 with an error
    # line, no traceback, no report, no cached report and no dump file
    out, cache, mats = tmp_path / "r.json", tmp_path / "cache", tmp_path / "mats"
    code = main(["analyze", "--family", "numerical", "--generators", "3,5",
                 "--depth", "1", "--trunc", "2", "--analyses", "ore",
                 "--out", str(out), "--cache-dir", str(cache),
                 "--matrix-dump", str(mats)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: word reach 3 exceeds truncation 2\n"
    assert not out.exists() and not cache.exists() and not mats.exists()


def test_main_cache_dir(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    cache = tmp_path / "cache"
    args = ["analyze", "--family", "numerical", "--generators", "2,3",
            "--analyses", "ore", "--seed", "4", "--out", str(out),
            "--cache-dir", str(cache)]
    assert main(args) == 0
    first = out.read_text()
    assert len(os.listdir(cache)) == 1
    assert main(args) == 0
    assert out.read_text() == first
    # a truncated entry, as a killed writer would leave, is a miss and is
    # rewritten whole
    (entry,) = cache.iterdir()
    entry.write_text(first[:len(first) // 2])
    assert main(args) == 0
    rerun = out.read_text()
    assert stable_body(json.loads(rerun)) == stable_body(json.loads(first))
    assert entry.read_text() == rerun
    assert main(args) == 0
    assert out.read_text() == rerun
    assert os.listdir(cache) == [entry.name]
    # the key covers the code and schema versions: other code never reads
    # this entry
    monkeypatch.setattr(cli, "__version__", "0.0.0+other")
    assert main(args) == 0
    assert len(os.listdir(cache)) == 2
    assert json.loads(out.read_text())["tool"]["version"] == "0.0.0+other"
    monkeypatch.setattr(cli, "SCHEMA_VERSION", 2)
    assert main(args) == 0
    assert len(os.listdir(cache)) == 3


def test_cache_key_digest_is_the_package_source_sha256():
    package = Path(cli.__file__).resolve().parent
    want = hashlib.sha256(b"".join(
        path.read_bytes() for path in sorted(package.glob("*.py"))))
    assert cli._source_digest() == want.hexdigest()


def test_main_cache_misses_an_entry_from_other_source(tmp_path, monkeypatch):
    # the version string has read the same across code changes, so a key
    # on it alone served reports that older code wrote
    monkeypatch.delenv("SGCLAB_CACHE_DIR", raising=False)
    cache = tmp_path / "cache"
    args = ["analyze", "--family", "numerical", "--generators", "2,3",
            "--analyses", "ore", "--out", str(tmp_path / "r.json")]
    assert main([*args, "--cache-dir", str(cache)]) == 0
    assert len(os.listdir(cache)) == 1
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    assert main([*args, "--cache-dir", str(cache)]) == 0
    assert len(os.listdir(cache)) == 2

    # without a cache the source is never read
    def unread():
        raise AssertionError("the source digest is read without a cache")
    monkeypatch.setattr(cli, "_source_digest", unread)
    assert main(args) == 0


@pytest.mark.parametrize("flags,code", [
    (["--family", "numerical", "--generators", "2,3", "--analyses", "ore"], 0),
    # freeness is inconclusive on the rank-2 frontier gradings
    (["--family", "free_monoid", "--rank", "2", "--depth", "2",
      "--analyses", "freeness"], 2),
], ids=["ore", "F2+ freeness"])
def test_main_cache_hit_writes_the_stored_text(tmp_path, monkeypatch, capsys,
                                               flags, code):
    out = tmp_path / "r.json"
    args = ["analyze", *flags, "--cache-dir", str(tmp_path / "cache")]
    assert main(args + ["--out", str(out)]) == code
    (entry,) = (tmp_path / "cache").iterdir()
    stored = entry.read_bytes()

    def refuse(*_):
        raise AssertionError("a cache hit runs and encodes nothing")

    monkeypatch.setattr(cli, "run", refuse)
    monkeypatch.setattr(cli, "report_to_json", refuse)
    out.unlink()
    assert main(args + ["--out", str(out)]) == code
    assert out.read_bytes() == stored
    capsys.readouterr()
    assert main(args) == code
    assert capsys.readouterr().out.encode() == stored


def test_main_cache_miss_serializes_once(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    cache = tmp_path / "cache"
    calls = []

    def counted(report):
        calls.append(report)
        return report_to_json(report)

    monkeypatch.setattr(cli, "report_to_json", counted)
    assert main(["analyze", "--family", "numerical", "--generators", "2,3",
                 "--analyses", "ore", "--out", str(out),
                 "--cache-dir", str(cache)]) == 0
    assert len(calls) == 1
    (entry,) = cache.iterdir()
    assert entry.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("doc", [
    {"results": 1}, [], {}, {"results": {"ore": 1}}, {"results": {"ore": {}}},
    {"results": []},
], ids=["int-results", "list", "empty", "int-result", "no-tier", "list-results"])
def test_main_cache_entry_that_is_no_report_is_a_miss(tmp_path, monkeypatch,
                                                      capsys, doc):
    args = ["analyze", "--family", "numerical", "--generators", "2,3",
            "--analyses", "ore", "--cache-dir", str(tmp_path / "cache")]
    assert main(args) == 0
    (entry,) = (tmp_path / "cache").iterdir()
    entry.write_text(json.dumps(doc))
    runs = []

    def recorded(config):
        runs.append(run(config))
        return runs[-1]

    monkeypatch.setattr(cli, "run", recorded)
    capsys.readouterr()
    code = main(args)
    ((report, fresh_code),) = runs
    printed = capsys.readouterr().out
    assert code == fresh_code
    assert printed == report_to_json(report)
    assert entry.read_text() == printed


@pytest.mark.parametrize("flags", [
    ["--rank", "5"], ["--generators", "3,5"], ["--rank", "3", "--generators", ""]])
def test_main_refuses_model_flags_without_family(tmp_path, capsys, flags):
    # the config holds F2+; a --rank without --family was once dropped, so
    # the run reported rank 2 and exited 0
    cfg, out = tmp_path / "c.json", tmp_path / "r.json"
    cfg.write_text(json.dumps({"model": {"family": "free_monoid", "rank": 2},
                               "analyses": ["ore"]}))
    code = main(["analyze", "--config", str(cfg), "--out", str(out)] + flags)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err == "error: --rank and --generators need --family\n"


def test_main_error_exit(tmp_path, capsys):
    assert main(["analyze", "--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{\"model\": {\"family\": \"nope\"}}")
    assert main(["analyze", "--config", str(bad)]) == 1
    model = {"family": "numerical", "generators": [2, 3]}
    for doc in ([1], {"model": model, "caps": [1, 2]},
                {"model": model, "seed": "abc"},
                {"model": model, "seed": True},
                {"model": model, "analyses": [["ore"]]},
                {"model": model, "freeness_g": 3},
                {"model": {"family": "free_monoid", "rank": True}},
                {"model": {"family": "numerical", "generators": "23"}}):
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["analyze", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
    for caps_flag in ([], ["--depth", "1"]):
        bad.write_text(json.dumps({"model": model, "caps": [1, 2]}))
        assert main(["analyze", "--config", str(bad)] + caps_flag) == 1
    assert main(["analyze", "--family", "numerical",
                 "--generators", "2,x"]) == 1
    assert "--generators" in capsys.readouterr().err


@pytest.mark.parametrize("out", [1, 2, True, []])
def test_main_refuses_an_out_that_is_no_path(tmp_path, capsys, monkeypatch,
                                             out):
    # open() would take an int as a file descriptor: write the report to
    # it, then close it
    def open_path(file, *args, **kw):
        assert isinstance(file, str), f"open({file!r})"
        return open(file, *args, **kw)

    monkeypatch.setattr(cli, "open", open_path, raising=False)
    bad = tmp_path / "out.json"
    bad.write_text(json.dumps(
        {"model": {"family": "free_abelian", "rank": 1},
         "analyses": ["ore"], "out": out}))
    assert main(["analyze", "--config", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "'out'" in captured.err


@pytest.mark.parametrize("doc,topic", [
    ([1, 2], "independence"),
    ({"results": [1]}, "ore"),
    ({"results": {"ore": [1]}}, "ore"),
    ({"results": {"ore": {"tier": "exact"}}}, "ore"),
    ({"results": {"ore": {"tier": "exact", "result": 3}}}, "ore"),
    ({"results": {"sc": {"tier": "exact", "element": "x",
                         "probe": {"frames": [1], "enclosures": [7]}}}}, "sc"),
])
def test_main_explain_refuses_what_is_no_report(tmp_path, capsys, doc, topic):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert main(["explain", str(path), topic]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_explain_shows_the_rank_oracle_detail():
    # at radius 1 the ideals 2 + N and 3 + N of N^1 have no members
    report, _ = run(RunConfig.from_dict(
        {"model": {"family": "free_abelian", "rank": 1},
         "analyses": ["independence"],
         "caps": {"trace_depth": 3, "radius": 1}}))
    rank = report["results"]["independence"]["rank_oracle"]
    assert rank["status"] == "inconclusive"
    assert "agree within the radius" in rank["detail"]
    text = explain(report, "independence")
    assert f"rank oracle detail: {rank['detail']}" in text.splitlines()[-1]
    # a definite verdict has no detail, and no detail line
    report, _ = run(RunConfig.from_dict(small_config()))
    assert "detail" not in explain(report, "independence")


def test_main_refuses_oversized_numerical_generators(capsys):
    code = main(["analyze", "--family", "numerical",
                 "--generators", "1001,1002"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "1002002" in captured.err


def test_explain_says_why_boundary_route_two_gave_no_answer():
    # on <4,7,9> at depth 1 no character lies in every singleton closure
    report, _ = run(RunConfig.from_dict(
        {"model": {"family": "numerical", "generators": [4, 7, 9]},
         "analyses": ["boundary"], "caps": {"trace_depth": 1}}))
    res = report["results"]["boundary"]["result"]
    assert res["orbit_route_size"] is None and not res["routes_agree"]
    last = explain(report, "boundary").splitlines()[-1]
    assert "no character lies in every singleton closure" in last
    assert f"unresolved instances: {res['unresolved_instances']}" in last
    # a run whose route two answers prints no such line
    report, _ = run(RunConfig.from_dict(small_config(analyses=["boundary"])))
    assert report["results"]["boundary"]["result"]["orbit_route_size"]
    assert "singleton closure" not in explain(report, "boundary")


def test_report_json_is_sorted():
    report, _ = run(RunConfig.from_dict(small_config()))
    text = report_to_json(report)
    assert json.loads(text) == report
    assert text.index('"config"') < text.index('"results"')


_ODD_TEXT = st.sampled_from(
    ["", "\"", "\\", "\"q\\\"", "\x00\x1f\x7f", "\n\t\r\b\f", "\u00e9",
     "\u2028", "\U0001f600", "\udc80"])
_TEXT = st.one_of(st.text(max_size=6), _ODD_TEXT)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 80, 2 ** 80),
    st.sampled_from([0, -1, True, False, -0.0, 0.0, 1e300, -1e300, 5e-324,
                     0.1, 1.5e-7, 12345678901234567890.0]),
    st.floats(allow_nan=False, allow_infinity=False), _TEXT)
_VALUES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_TEXT, kids, max_size=4)),
    max_leaves=30)


@given(_VALUES)
@example({"": [], "a": {}, "b": [[], {}, [[]], {"c": {}}], "\"k\"": ()})
@example([True, 1, False, 0, -1, 2 ** 70, -(2 ** 70), -0.0, 1e300, 5e-324])
@example({"\u00e9\x01": {"\\": "\"\x1f\u2603"}})
# bools beside ints, as list items and as dict values, and scalars three
# lists deep: a leaf test by isinstance(v, int) would write True as 1
@example([True, 1, False, 0])
@example({"a": True, "b": 1})
@example([[[1, "x", True, None, 0.5, -3, False, ""]]])
@settings(max_examples=300, deadline=None)
def test_report_encoder_matches_json_dumps(value):
    assert report_to_json(value) == \
        json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_semilattice_table_is_the_sorted_intersect_table(all_models,
                                                         monkeypatch):
    # the table is written in (i, j) order without a sort: it must be the
    # sorted triples of the lattice's meet rows
    lattices = []
    real = cli.enumerate_ideals

    def kept(*args):
        lattices.append(real(*args))
        return lattices[-1]

    monkeypatch.setattr(cli, "enumerate_ideals", kept)
    for model in all_models:
        report, _ = run(RunConfig.from_dict(
            {"model": model.config(), "analyses": ["invsgp"],
             "caps": {"trace_depth": 2}}))
        table = lattices[-1].meet
        assert report["results"]["invsgp"]["semilattice_table"] == sorted(
            [i, j, k] for i, row in enumerate(table)
            for j, k in enumerate(row)), model.name


@pytest.mark.parametrize("value,error", [
    ({1: "a"}, TypeError),
    ({"a": 1, 2: "b"}, TypeError),
    ({"a": {1, 2}}, TypeError),
    ([frozenset()], TypeError),
    ([b"bytes"], TypeError),
    ({"a": [float("nan")]}, ValueError),
    (float("inf"), ValueError),
    ([-float("inf")], ValueError),
])
def test_report_encoder_refuses_what_reports_never_hold(value, error):
    # json.dumps would write these (an int key as a string, NaN as a bare
    # token) or refuse them; the encoder refuses rather than drift
    with pytest.raises(error):
        report_to_json(value)
    with pytest.raises(error):
        stable_body({"results": value})


def _dumped(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


# Values far past the writer's ~8K-chunk blocks.  The writer flushes as a
# container starts, so a flat list of ints is one long block; the nested
# patterns repeat with a period prime to the block size, so their empty
# containers, bools and deep tuples land just after a flush somewhere.
_BLOCK_CASES = {
    "20000 ints": list(range(-10_000, 10_000)),
    "5000 small dicts": [{"i": i, "s": str(i), "z": [], "n": None}
                         for i in range(5000)],
    "empties and bools": [[[], {}, True, False, None, [i], {"k": False}][i % 7]
                          for i in range(30_000)],
    "tuples four deep": [i if i % 101 else ((((i, "x"), ()), True), {})
                         for i in range(30_000)],
    "in a dict": {f"k{i:05}": [i, True, {"e": {}}] for i in range(8000)},
}


@pytest.mark.parametrize("name", sorted(_BLOCK_CASES))
def test_report_encoder_matches_json_dumps_across_blocks(name):
    value = _BLOCK_CASES[name]
    assert report_to_json(value) == _dumped(value)
    assert stable_body({"results": value}) == _dumped({"results": value})


@pytest.mark.parametrize("bad,error", [
    (float("nan"), ValueError), ({1: "a"}, TypeError), ({2, 3}, TypeError)])
@pytest.mark.parametrize("at", [9_000, 19_999])
def test_report_encoder_refuses_after_the_first_block(bad, error, at):
    # the refusal holds past a flush, where the first blocks are written
    value = [[i] for i in range(20_000)]
    value[at] = [bad]
    with pytest.raises(error):
        report_to_json(value)
