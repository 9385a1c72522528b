"""The benchmark's workloads: sgclab config documents, one list per name.

The workload seed becomes the ``seed`` of every config, which drives the
sampled pairs in the ``invsgp`` and ``fock`` analyses.  Every other field
is fixed; caps not listed stay at sgclab's defaults.
"""

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# The seed the expected hashes were recorded at.  Reports at other seeds are
# compared after their config seed is set back to this one.
DEFAULT_SEED = 0

_ENUM_ANALYSES = ["ideals", "independence", "ore", "invsgp"]

_SWEEP_MODELS = (
    {"family": "free_abelian", "rank": 1},
    {"family": "free_abelian", "rank": 2},
    {"family": "free_monoid", "rank": 2},
    {"family": "numerical", "generators": [2, 3]},
)

WORKLOADS = {
    "spectrum-num357": [
        {"model": {"family": "numerical", "generators": [3, 5, 7]},
         "caps": {"trace_depth": 2}},
    ],
    "fock-f3": [
        {"model": {"family": "free_monoid", "rank": 3},
         "caps": {"trace_depth": 2}},
    ],
    "enum-f2-d6": [
        {"model": {"family": "free_monoid", "rank": 2},
         "caps": {"trace_depth": 6}, "analyses": _ENUM_ANALYSES},
    ],
    "sweep-small": [
        {"model": model, "caps": {"trace_depth": depth}}
        for model in _SWEEP_MODELS for depth in (2, 3)
    ],
    # Sub-second config for the harness smoke check; not a benchmark workload.
    "smoke": [
        {"model": {"family": "free_abelian", "rank": 1},
         "caps": {"trace_depth": 2}},
    ],
}


def config_docs(workload, seed):
    """The workload's config documents with ``seed`` set on each."""
    return [dict(doc, seed=seed) for doc in WORKLOADS[workload]]


def body_sha256(report, stable_body):
    """sha256 of the report's stable body with its config seed set to the
    default, so one recorded hash checks every workload seed."""
    report = dict(report, config=dict(report["config"], seed=DEFAULT_SEED))
    return hashlib.sha256(stable_body(report).encode()).hexdigest()


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)["sha256"]
