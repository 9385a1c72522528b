"""sgclab benchmark: end-to-end time, memory and failures of ``analyze``.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: one process, one closed-loop client.  Each config of the
workload is analysed in-process through the public API
(``RunConfig.from_dict`` -> ``run`` -> ``report_to_json``) only after the
previous one returned; no threads, no worker processes.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is measured in
fresh processes first; then whole passes over the workload run back to back
until the next one would end after ``--seconds``, and the medians are
reported.  ``--trace 1`` runs an untraced pass, a traced pass (see
``tracer.py``) and a second untraced pass, and prints the per-layer metrics.

The speed of a shared machine drifts by tens of percent within seconds, so
end-to-end times are reported at a reference speed: while they are measured,
``speed.SpeedClock`` interleaves a short fixed probe every 0.2 s, leaves the
probes' time out, and scales each measured stretch by the probes' mean
speed relative to the reference during it.  Raw wall times are printed
alongside.

Every report is checked against the sha256 of its stable body recorded
from the seed commit in ``expected.json``.  The last line of stdout is one
JSON object: ``correct``, ``attempted`` and ``failed`` count analyze calls
(a call fails when it raises or its report differs from the recorded one),
and ``metrics`` maps each metric name to its value and unit.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from speed import SpeedClock
from tracer import Tracer
from workloads import body_sha256, config_docs, load_expected

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_out")

BENCH_WORKLOADS = ("spectrum-num357", "fock-f3", "enum-f2-d6", "sweep-small")
# Fixed here rather than read from sgclab, so that the emitted metric names
# stay the ones BENCHMARK.json declares.
ANALYSES = ("ideals", "independence", "ore", "invsgp", "spectrum",
            "boundary", "freeness", "fock", "sc")
SETUP_RUNS = 15

# Per-layer metrics read from the tracer.
CALL_METRICS = (
    "models.mul", "models.in_p", "models.validate", "models.enumerate_p",
    "spectrum.is_filter", "spectrum.meet_pos", "spectrum.theta_apply",
    "spectrum.position_of_ideal", "spectrum.invariant_closure",
    "fock.rep_vword", "fock.mul_op", "fock.projection_op",
    "invsgp.make_vword", "invsgp.compose",
    "ideals.from_trace", "ideals.intersect",
    "exactla.bareiss_rank", "exactla.operator_norm_enclosure",
)
TIME_METRICS = (
    "spectrum.theta_apply", "spectrum.carriers",
    "fock.rep_vword", "fock.check_projection_identity",
    "fock.cond_expectation", "fock.sc_limit_probe",
    "invsgp.make_vword", "invsgp.enumerate_vwords",
    "ideals.from_trace", "ideals.enumerate_ideals",
    "exactla.bareiss_rank",
)
SELF_METRICS = ("cli", "models", "ideals", "invsgp", "spectrum", "fock")

# Runs in a fresh interpreter: import sgclab, parse every config, build its
# model and resolve its caps; then probe the speed, scale, and print.
# argv: source dir, JSON list of config docs, this directory.
_SETUP_CHILD = r"""
import json, resource, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from sgclab import cli
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for doc in json.loads(sys.argv[2]):
    config = cli.RunConfig.from_dict(doc)
    cli._caps_for(cli.build_model(config.model_config), config.caps)
wall = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
from speed import scale_now
print(json.dumps({"setup_s": wall * scale_now(), "wall_s": wall,
                  "import_rss_kib": rss}))
"""


def import_cli():
    """Import sgclab from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "sgclab", "__init__.py")):
        raise SystemExit(f"error: no sgclab sources under {SRC}")
    sys.path.insert(0, SRC)
    from sgclab import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported sgclab from {cli.__file__}")
    return cli


def measure_setup(docs):
    """Median set-up seconds, at the reference speed, raw wall seconds and
    import-only RSS over fresh processes; the first process compiles
    bytecode and is not counted."""
    samples = []
    for _ in range(SETUP_RUNS + 1):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, SRC, json.dumps(docs), HERE],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return {key: statistics.median(s[key] for s in samples[1:])
            for key in samples[0]}


class Pass:
    """Totals of one pass over a workload's configs."""

    def __init__(self):
        self.analyze_s = 0.0
        self.serialize_s = 0.0
        self.timings = dict.fromkeys(ANALYSES, 0.0)
        self.report_bytes = 0
        self.calls = 0
        self.failed_calls = 0
        self.analyses = 0
        self.failed_analyses = 0


def run_pass(cli, configs, expected, now=time.perf_counter):
    """Analyse every config once, one after another, and check each report.

    Only ``run`` plus ``report_to_json`` is timed, with ``now``.  An
    analysis fails when its result carries an ``error`` key, or when its
    report's stable body differs from the recorded one.
    """
    gc.collect()
    p = Pass()
    for config, want in zip(configs, expected):
        p.calls += 1
        p.analyses += len(config.analyses)
        t0 = now()
        try:
            report, _code = cli.run(config)
            t1 = now()
            text = cli.report_to_json(report)
            t2 = now()
        except Exception:  # an analyze call that raises is a failure
            traceback.print_exc()
            p.failed_calls += 1
            p.failed_analyses += len(config.analyses)
            continue
        p.analyze_s += t2 - t0
        p.serialize_s += t2 - t1
        p.report_bytes += len(text.encode())
        for name, secs in report["timings"].items():
            p.timings[name] += secs
        results = report["results"]
        if body_sha256(report, cli.stable_body) != want:
            print(f"report mismatch for {config.model_config} "
                  f"{config.caps['trace_depth']}", file=sys.stderr)
            p.failed_calls += 1
            p.failed_analyses += len(results)
        else:
            p.failed_analyses += sum("error" in r for r in results.values())
    return p


def tail_percentile(values):
    """(q, value) for the highest percentile with at least ten samples
    beyond it, or None when fewer than 21 samples leave only the median."""
    n = len(values)
    if n <= 20:
        return None
    q = 1 - 10 / n
    return q, sorted(values)[int(q * n) - 1]


def end_to_end(cli, docs, configs, expected, seconds):
    setup = measure_setup(docs)
    passes, scaled = [], []
    with SpeedClock() as clock:
        start = time.perf_counter()
        while True:
            t0, first = time.perf_counter(), len(clock.probes)
            passes.append(run_pass(cli, configs, expected, clock.now))
            scaled.append(passes[-1].analyze_s * clock.scale(first))
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > seconds:
                break
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall = [p.analyze_s for p in passes]
    analyses = sum(p.analyses for p in passes)
    failed_analyses = sum(p.failed_analyses for p in passes)
    failed_share = failed_analyses / analyses
    for label, values in (("analyze_s samples", scaled),
                          ("analyze unscaled s samples", wall)):
        tail = tail_percentile(values)
        tail_text = ("none: needs more than 20 samples" if tail is None
                     else f"p{100 * tail[0]:.0f} {tail[1]:.4f} s")
        print(f"{label}: median {statistics.median(values):.4f} s, n={len(values)} "
              f"[{', '.join(f'{v:.4f}' for v in values)}], tail {tail_text}")
    print(f"setup wall s: median {setup['wall_s']:.4f} s over {SETUP_RUNS} processes")
    print(f"import_rss_kib (import-only baseline): {setup['import_rss_kib']} KiB")
    print(f"failed_share: {failed_share:.6f} share "
          f"({failed_analyses} of {analyses} analyses)")
    metrics = {
        "analyze_s": (statistics.median(scaled), "s"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_kib": (peak_rss, "KiB"),
        "ok_share": (1 - failed_share, "share"),
    }
    return passes, metrics


def per_layer(cli, configs, expected):
    plain = run_pass(cli, configs, expected)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, configs, expected)
    finally:
        tracer.uninstall()
    # The traced pass over the mean of the untraced passes either side of
    # it, which cancels a steady drift of the machine's speed.
    plain_after = run_pass(cli, configs, expected)
    untraced_s = (plain.analyze_s + plain_after.analyze_s) / 2
    print(f"trace overhead: traced {traced.analyze_s:.4f} s, untraced "
          f"{plain.analyze_s:.4f} s before and {plain_after.analyze_s:.4f} s "
          f"after, unscaled wall times")
    calls, obs = tracer.calls, tracer.observed
    metrics = {f"cli.{a}_s": (plain.timings[a], "s") for a in ANALYSES}
    metrics["cli.serialize_s"] = (plain.serialize_s, "s")
    metrics["cli.report_kib"] = (plain.report_bytes / 1024, "KiB")
    for name in CALL_METRICS:
        metrics[f"{name}_calls"] = (calls[name], "count")
    for name in TIME_METRICS:
        metrics[f"{name}_s"] = (tracer.total_s[name], "s")
    for module in SELF_METRICS:
        metrics[f"{module}.self_s"] = (tracer.module_self_s(module), "s")
    theta = calls["spectrum.theta_apply"]
    metrics["spectrum.theta_image_share"] = (
        obs["theta_images"] / theta if theta else 0.0, "ratio")
    built = tracer.edges.get(("invsgp.enumerate_vwords", "invsgp.make_vword"), 0)
    metrics["invsgp.distinct_words"] = (obs["distinct_words"], "count")
    metrics["invsgp.dedup_yield"] = (
        obs["distinct_words"] / built if built else 0.0, "ratio")
    metrics["ideals.lattice_ideals"] = (obs["lattice_ideals"], "count")
    metrics["trace.overhead_ratio"] = (traced.analyze_s / untraced_s, "ratio")
    return [plain, traced, plain_after], metrics, tracer


def write_trace(workload, seed, tracer):
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh, indent=1, sort_keys=True)
    print(f"trace written to {os.path.relpath(path, ROOT)}")


def measure(workload, seed, seconds, trace):
    """Run one benchmark measurement; returns the result object."""
    cli = import_cli()
    docs = config_docs(workload, seed)
    expected = load_expected()[workload]
    configs = [cli.RunConfig.from_dict(doc) for doc in docs]
    if trace:
        passes, metrics, tracer = per_layer(cli, configs, expected)
        write_trace(workload, seed, tracer)
    else:
        passes, metrics = end_to_end(cli, docs, configs, expected, seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    failed = sum(p.failed_calls for p in passes)
    return {
        "correct": failed == 0,
        "attempted": sum(p.calls for p in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=BENCH_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
