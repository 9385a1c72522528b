"""Self-checks of the benchmark harness.

    python3 perfbench/check.py smoke
    python3 perfbench/check.py counts

``smoke`` runs the sub-second smoke config (N^1, depth 2) in both modes and
requires every metric named in BENCHMARK.json to be emitted with its unit.
It also requires the correctness gate to run: the reports match their
recorded hashes, and a report checked against a wrong hash counts as failed.

``counts`` makes two traced runs per workload, in fresh processes under
different PYTHONHASHSEED values, and requires every call count, distinct
word and ideal count and share to repeat exactly.  It also requires each
traced function to be called on at least one workload, except those declared unreachable in ``tracer.EXPECTED_UNCALLED``,
so that a renamed function cannot silently report 0.
"""

import json
import os
import subprocess
import sys

import run
from tracer import EXPECTED_UNCALLED

# Per-layer metrics that must repeat exactly between two traced runs.
EXACT_RATIOS = ("spectrum.theta_image_share", "invsgp.dedup_yield")


def fail(msg):
    raise SystemExit(f"check failed: {msg}")


def check_emitted(result, specs):
    got = result["metrics"]
    want = {s["name"]: s["unit"] for s in specs}
    if set(got) != set(want):
        fail(f"metrics {sorted(set(got) ^ set(want))} missing or undeclared")
    for name, unit in want.items():
        if got[name]["unit"] != unit:
            fail(f"{name} has unit {got[name]['unit']!r}, declared {unit!r}")


def smoke():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run.measure("smoke", 0, 0.1, trace)
        check_emitted(result, bench[key])
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            fail(f"smoke reports do not match expected.json: {result}")
    cli = run.import_cli()
    configs = [cli.RunConfig.from_dict(doc)
               for doc in run.config_docs("smoke", 0)]
    gate = run.run_pass(cli, configs, ["0" * 64])
    if gate.failed_calls != 1 or gate.failed_analyses != gate.analyses:
        fail("a report with a wrong hash was not counted as failed")
    print("smoke: ok")


def traced_run(workload, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    out = subprocess.run(
        [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, env=env, capture_output=True, text=True, check=True,
        timeout=600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    path = os.path.join(run.TRACE_DIR, f"trace-{workload}-seed0.json")
    with open(path, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    exact = {name: m["value"] for name, m in result["metrics"].items()
             if m["unit"] == "count" or name in EXACT_RATIOS}
    exact.update({f"{name} calls": s["calls"] for name, s in spans.items()})
    return exact


def counts():
    called = {}
    for workload in run.BENCH_WORKLOADS:
        first, second = traced_run(workload, 1), traced_run(workload, 2)
        diff = sorted(k for k in first if first[k] != second.get(k))
        if diff:
            fail(f"{workload}: counts differ between runs: {diff}")
        for key, value in first.items():
            if key.endswith(" calls"):
                called[key[:-6]] = called.get(key[:-6], 0) + value
        print(f"counts: {workload}: {len(first)} values repeat exactly")
    dead = sorted(n for n, c in called.items()
                  if c == 0 and n not in EXPECTED_UNCALLED)
    if dead:
        fail(f"traced functions never called on any workload: {dead}")
    print("counts: every traced function is called on some workload")


def main(argv):
    if argv == ["smoke"]:
        smoke()
    elif argv == ["counts"]:
        counts()
    else:
        raise SystemExit(__doc__)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
