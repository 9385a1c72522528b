import hashlib
import json
import os

import pytest

from sgclab import cli
from sgclab.cli import (ANALYSES, ConfigError, RunConfig, explain, main,
                        report_to_json, run, stable_body)


def small_config(**over):
    doc = {
        "model": {"family": "numerical", "generators": [2, 3]},
        "analyses": ["ore", "independence"],
        "caps": {"trace_depth": 2, "radius": 20, "ore_len": 4},
        "seed": 5,
    }
    doc.update(over)
    return doc


def test_config_dependency_closure():
    cfg = RunConfig.from_dict({"model": {"family": "free_abelian", "rank": 1},
                               "analyses": ["freeness"]})
    assert cfg.analyses == ("ideals", "invsgp", "spectrum", "boundary", "freeness")
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


def test_reports_are_deterministic():
    cfg = RunConfig.from_dict(small_config(analyses=list(ANALYSES)))
    r1, _ = run(cfg)
    r2, _ = run(cfg)
    assert stable_body(r1) == stable_body(r2)
    assert "timings" in r1 and set(r1["timings"]) == set(r1["results"])


# sha256 of the stable body of `run` at seed 0, trace depth 2, all analyses.
# A change of representation must leave every report byte-identical.
GOLDEN_STABLE_BODIES = (
    ({"family": "free_abelian", "rank": 1},
     "c4acd94a6a635f85d73f7ea67f99610a08be734caa9ef455888e385b261dcc70"),
    ({"family": "free_monoid", "rank": 2},
     "3300ff329e29d027050657b70e924ab2ea96dceda4cab3d9665cb1e72af6132f"),
    ({"family": "numerical", "generators": [2, 3]},
     "e6b88058fafa98be0e9bffc5f6b06a49f06354453e251b144a601d39c712e36d"),
)


@pytest.mark.parametrize("model,digest", GOLDEN_STABLE_BODIES,
                         ids=["N^1", "F2+", "<2,3>"])
def test_stable_body_matches_golden_hash(model, digest):
    doc = {"model": model, "caps": {"trace_depth": 2}, "seed": 0}
    report, _ = run(RunConfig.from_dict(doc))
    assert hashlib.sha256(stable_body(report).encode()).hexdigest() == digest


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


def test_main_matrix_dump(tmp_path):
    out = tmp_path / "r.json"
    dump = tmp_path / "mats"
    code = main(["analyze", "--family", "free_abelian", "--rank", "1",
                 "--analyses", "ore", "--out", str(out),
                 "--matrix-dump", str(dump)])
    assert code == 0
    text = (dump / "shift_0.txt").read_text()
    assert text.startswith("# truncop ")
    assert "1 0 1/1" in text


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


def test_main_error_exit(tmp_path, capsys):
    assert main(["analyze", "--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{\"model\": {\"family\": \"nope\"}}")
    assert main(["analyze", "--config", str(bad)]) == 1


def test_report_json_is_sorted():
    report, _ = run(RunConfig.from_dict(small_config()))
    text = report_to_json(report)
    assert json.loads(text) == report
    assert text.index('"config"') < text.index('"results"')
