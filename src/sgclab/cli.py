"""Batch driver: ingest a model config, run selected analyses, emit
human-readable and JSON reports.

Reports are deterministic for a fixed config and seed: all sampling uses a
seeded generator, every container is serialized in canonical order, and
wall-clock data is segregated under the top-level "timings" key so the
rest of the document is byte-stable.

Exit codes: 0 when every requested analysis produced a definite verdict,
2 when some verdict is inconclusive, 1 on errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from . import fock, invsgp, spectrum
from .ideals import (enumerate_ideals, independence_rank_oracle,
                     independence_test, ore_test)
from .models import ModelError, build_model

SCHEMA_VERSION = 1

ANALYSES = ("ideals", "independence", "ore", "invsgp", "spectrum",
            "boundary", "freeness", "fock", "sc")

_DEPS = {
    "ideals": (),
    "independence": ("ideals",),
    "ore": (),
    "invsgp": ("ideals",),
    "spectrum": ("ideals", "invsgp"),
    "boundary": ("spectrum",),
    "freeness": ("boundary",),
    "fock": ("ideals", "invsgp"),
    "sc": ("invsgp",),
}

DEFAULT_CAPS = {
    "trace_depth": 2,
    "gen_len": None,       # model default when None
    "radius": None,
    "trunc": None,
    "f_chain": 4,
    "ore_len": 3,
    "samples": 50,
    "max_ideals": 10000,
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    model_config: dict
    analyses: tuple
    caps: dict
    seed: int = 0
    freeness_g: object = None   # optional list of rendered group elements
    out: object = None

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        if "model" not in doc:
            raise ConfigError("config needs a 'model' section")
        analyses = doc.get("analyses", list(ANALYSES))
        bad = [a for a in analyses if a not in ANALYSES]
        if bad:
            raise ConfigError(f"unknown analyses {bad}; known: {list(ANALYSES)}")
        caps = dict(DEFAULT_CAPS)
        caps.update(doc.get("caps", {}))
        for key, val in caps.items():
            if key not in DEFAULT_CAPS:
                raise ConfigError(f"unknown cap {key!r}")
            if val is not None and (isinstance(val, bool)
                                    or not isinstance(val, int) or val < 0):
                raise ConfigError(f"cap {key!r} must be a non-negative int")
        closure = set(analyses)
        while True:
            extra = {d for a in closure for d in _DEPS[a]} - closure
            if not extra:
                break
            closure |= extra
        ordered = tuple(a for a in ANALYSES if a in closure)
        return RunConfig(
            model_config=doc["model"],
            analyses=ordered,
            caps=caps,
            seed=int(doc.get("seed", 0)),
            freeness_g=doc.get("freeness_g"),
            out=doc.get("out"),
        )

    def canonical(self) -> dict:
        return {
            "model": self.model_config,
            "analyses": list(self.analyses),
            "caps": {k: self.caps[k] for k in sorted(self.caps)},
            "seed": self.seed,
            "freeness_g": self.freeness_g,
        }


def _caps_for(model, caps):
    out = dict(caps)
    if out["gen_len"] is None:
        out["gen_len"] = model.default_gen_len
    if out["radius"] is None:
        out["radius"] = model.default_radius
    if out["trunc"] is None:
        out["trunc"] = model.default_trunc
    return out


def _an_ideals(model, caps, rng, store):
    lat = enumerate_ideals(model, caps["trace_depth"], caps["gen_len"],
                           caps["radius"], caps["max_ideals"], close=True)
    store["lattice"] = lat
    result = {
        "op": "ideals.enumerate_ideals",
        "params": {"trace_depth": caps["trace_depth"], "gen_len": caps["gen_len"],
                   "radius": caps["radius"], "cap": caps["max_ideals"]},
        "count": len(lat.ideals),
        "nonempty": len(lat.nonempty_indices()),
        "lattice": lat.to_json(),
    }
    return result, lat.tier


def _an_independence(model, caps, rng, store):
    lat = store["lattice"]
    comb = independence_test(lat)
    rank = independence_rank_oracle(lat)
    agree = None
    if comb.status != "inconclusive" and rank.status != "inconclusive":
        agree = ((comb.status == "independent") == (rank.status == "full_rank"))
    tier = "exact"
    if comb.status == "inconclusive" or rank.status == "inconclusive":
        tier = "inconclusive"
    elif agree is False:
        tier = "inconclusive"
    result = {
        "op": "ideals.independence_test",
        "params": {"fragment_size": len(lat.ideals), "radius": lat.radius},
        "combinatorial": comb.to_json(),
        "rank_oracle": rank.to_json(),
        "oracles_agree": agree,
    }
    store["independence_flags"] = {
        "independence": comb.status,
        "witness": comb.witness,
        "witness_parts": list(comb.parts),
        "rank": rank.status,
    }
    return result, tier


def _an_ore(model, caps, rng, store):
    res = ore_test(model, caps["ore_len"])
    tier = "inconclusive" if res.status == "inconclusive" else "exact"
    return {
        "op": "ideals.ore_test",
        "params": {"max_len": caps["ore_len"]},
        "result": res.to_json(model),
    }, tier


def _an_invsgp(model, caps, rng, store):
    fam = invsgp.enumerate_vwords(model, caps["trace_depth"], caps["gen_len"],
                                  caps["radius"])
    store["family"] = fam
    unit = model.unit
    involution_ok = all(
        invsgp.vword_eq(invsgp.compose(invsgp.compose(v, invsgp.star(v)), v), v)
        is True
        for v in fam.members)
    pool = list(range(len(fam.members)))
    pairs = [(i, j) for i in pool for j in pool]
    if len(pairs) > 400:
        pairs = rng.sample(sorted(pairs), 400)
    grading_ok = True
    for i, j in pairs:
        v, w = fam.members[i], fam.members[j]
        vw = invsgp.compose(v, w)
        if not vw.is_zero and vw.grading != model.mul(v.grading, w.grading):
            grading_ok = False
    collapse_ok = all(
        invsgp.vword_eq(v, invsgp.idempotent_vword(v.dom)) is True
        for v in fam.members if v.grading == unit)
    sl = invsgp.semilattice(store["lattice"])
    table = sorted([i, j, k] for (i, j), k in sl["table"].items())
    tier = "exact" if (involution_ok and grading_ok and collapse_ok) else "inconclusive"
    return {
        "op": "invsgp.enumerate_vwords",
        "params": fam.params,
        "distinct_words": len(fam.members),
        "zero_seen": fam.zero is not None,
        "grading_values": len(fam.by_grading),
        "laws": {"vv*v=v": involution_ok, "grading_multiplicative": grading_ok,
                 "trivially_graded_collapse": collapse_ok},
        "semilattice_table": table,
        "export": fam.to_json(),
    }, tier


def _an_spectrum(model, caps, rng, store):
    frag = spectrum.Fragment.from_lattice(store["lattice"])
    ctx = spectrum.ThetaContext(frag, store["family"])
    store["fragment"] = frag
    store["theta"] = ctx
    chars = spectrum.enumerate_characters(frag)
    identity_ok = all(
        spectrum.theta_apply(ctx, model.unit, chi).image == chi for chi in chars)
    checked = ambiguous = failures = 0
    gradings = ctx.gradings()
    for g2 in gradings:
        for g1 in gradings:
            g12 = model.mul(g1, g2)
            for chi in chars:
                r2 = spectrum.theta_apply(ctx, g2, chi)
                if r2.status != "image":
                    ambiguous += r2.status == "ambiguous"
                    continue
                r1 = spectrum.theta_apply(ctx, g1, r2.image)
                r12 = spectrum.theta_apply(ctx, g12, chi)
                if r1.status == "image" and r12.status == "image":
                    checked += 1
                    if r1.image != r12.image:
                        failures += 1
                else:
                    ambiguous += 1
    tier = "exact" if failures == 0 else "inconclusive"
    return {
        "op": "spectrum.enumerate_characters",
        "params": {"fragment_size": frag.size(), "gradings": len(gradings)},
        "characters": len(chars),
        "identity_law": identity_ok,
        "composition_law": {"checked": checked, "failures": failures,
                            "skipped_at_fragment_edge": ambiguous},
    }, tier


def _an_boundary(model, caps, rng, store):
    ctx = store["theta"]
    res = spectrum.boundary(ctx)
    store["boundary"] = res
    frag = store["fragment"]
    edges = []
    for chi in sorted(res.chars, key=frag.up_masks.__getitem__):
        for g in ctx.gradings():
            out = spectrum.theta_apply(ctx, g, chi)
            if out.status == "image":
                edges.append([list(frag.support(chi)), model.render(g),
                              list(frag.support(out.image))])
    tier = "band-limited" if res.routes_agree else "inconclusive"
    return {
        "op": "spectrum.boundary",
        "params": {"fragment_size": frag.size()},
        "result": res.to_json(frag),
        "orbit_edges": edges,
    }, tier


def _an_freeness(model, caps, rng, store):
    ctx = store["theta"]
    bd = store["boundary"]
    if store.get("freeness_g") is not None:
        g_list = [model.parse(g) for g in store["freeness_g"]]
    else:
        g_list = [g for g in ctx.gradings()]
    verdicts = spectrum.topological_freeness_probe(ctx, bd.chars, g_list)
    rendered = [verdicts[g].to_json(model) for g in g_list]
    any_inconclusive = any(v.status == "inconclusive" for v in verdicts.values())
    return {
        "op": "spectrum.topological_freeness_probe",
        "params": {"tested_gradings": len(g_list)},
        "verdicts": rendered,
    }, ("inconclusive" if any_inconclusive else "band-limited")


def _an_fock(model, caps, rng, store):
    n = caps["trunc"]
    lat = store["lattice"]
    fam = store["family"]
    pairs_checked = 0
    proj_ok = True
    for i in lat.nonempty_indices():
        for j in lat.nonempty_indices():
            if not fock.check_projection_identity(lat.ideals[i], lat.ideals[j], n):
                proj_ok = False
            pairs_checked += 1
    mult_ok = True
    idxs = list(range(len(fam.members)))
    sample = [(rng.choice(idxs), rng.choice(idxs)) for _ in range(caps["samples"])]
    for i, j in sample:
        v, w = fam.members[i], fam.members[j]
        lhs = fock.mul_op(fock.rep_vword(v, n), fock.rep_vword(w, n))
        rhs = fock.rep_vword(invsgp.compose(v, w), n)
        if lhs.band >= 0 and not fock.equal_on_band(lhs, rhs):
            mult_ok = False
    exp_ok = True
    coeffs = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(-1, 3)]
    for _ in range(caps["samples"]):
        terms = [(rng.choice(coeffs), fam.members[rng.choice(idxs)])
                 for _ in range(rng.randint(1, 3))]
        try:
            fock.cond_expectation(terms, n)
        except fock.GradingMismatch:
            exp_ok = False
    tier = "exact" if (proj_ok and mult_ok and exp_ok) else "inconclusive"
    return {
        "op": "fock.rep_vword",
        "params": {"trunc": n, "samples": caps["samples"]},
        "projection_identity": {"pairs": pairs_checked, "ok": proj_ok},
        "multiplicative_on_band": mult_ok,
        "expectation_two_routes_agree": exp_ok,
    }, tier


def _an_sc(model, caps, rng, store):
    n = caps["trunc"]
    fam = store["family"]
    terms = fock.generator_covariance_terms(model, caps["radius"])
    chain = fock.default_f_chain(model, fam.by_grading.keys(), caps["f_chain"])
    probe = fock.sc_limit_probe(terms, chain, model, n)
    tier = "band-limited" if probe.verdict != "inconclusive" else "inconclusive"
    return {
        "op": "fock.sc_limit_probe",
        "params": {"trunc": n, "chain_length": len(chain)},
        "element": "inclusion-exclusion defect of the generator masks",
        "probe": probe.to_json(model),
    }, tier


_RUNNERS = {
    "ideals": _an_ideals,
    "independence": _an_independence,
    "ore": _an_ore,
    "invsgp": _an_invsgp,
    "spectrum": _an_spectrum,
    "boundary": _an_boundary,
    "freeness": _an_freeness,
    "fock": _an_fock,
    "sc": _an_sc,
}


def run(config: RunConfig):
    """Execute the configured analyses in dependency order.

    Returns (report_dict, exit_code).  Analyses run sequentially, in one
    process, so reports are deterministic; per-analysis errors are reported
    without aborting the rest of the run.
    """
    model = build_model(config.model_config)
    caps = _caps_for(model, config.caps)
    store = {}
    store["freeness_g"] = config.freeness_g
    results = {}
    timings = {}
    tiers = []
    for name in config.analyses:
        rng = random.Random((config.seed, name).__repr__())
        t0 = time.perf_counter()
        try:
            result, tier = _RUNNERS[name](model, caps, rng, store)
        except Exception as exc:  # per-analysis cap violations and the like
            result = {"op": name, "error": f"{type(exc).__name__}: {exc}"}
            tier = "inconclusive"
        timings[name] = round(time.perf_counter() - t0, 6)
        result["tier"] = tier
        results[name] = result
        tiers.append(tier)
    flags = store.get("independence_flags")
    if flags and "ideals" in results and "lattice" in results["ideals"]:
        results["ideals"]["lattice"]["flags"] = flags
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "sgclab", "version": __version__},
        "config": config.canonical(),
        "results": results,
        "timings": timings,
    }
    code = 0 if all(t != "inconclusive" for t in tiers) else 2
    return report, code


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def stable_body(report: dict) -> str:
    """The report minus segregated timing data, canonically serialized."""
    body = {k: v for k, v in report.items() if k != "timings"}
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def explain(report: dict, topic: str) -> str:
    """Prose rendering of one analysis verdict with its witnesses."""
    results = report.get("results", {})
    if topic not in results:
        raise ConfigError(f"topic {topic!r} not in report; "
                          f"have: {sorted(results)}")
    r = results[topic]
    lines = [f"{topic}: tier={r.get('tier')}"]
    if "error" in r:
        lines.append(f"  error: {r['error']}")
        return "\n".join(lines)
    if topic == "ore":
        res = r["result"]
        if res["status"] == "ore_up_to":
            lines.append(f"  every pair up to length {res['level']} has a common"
                         " right multiple")
        elif res["status"] == "counterexample":
            lines.append(f"  the pair {res['pair']} has disjoint principal ideals")
        else:
            lines.append(f"  search exhausted for pair {res['pair']}")
    elif topic == "independence":
        comb = r["combinatorial"]
        if comb["status"] == "witness":
            lines.append(f"  ideal #{comb['witness']} equals the union of"
                         f" smaller ideals {comb['parts']}")
        else:
            lines.append(f"  {comb['status']}: {comb['detail']}")
        lines.append(f"  rank oracle: {r['rank_oracle']['status']}"
                     f" (rank {r['rank_oracle']['rank']} of"
                     f" {r['rank_oracle']['nonempty']});"
                     f" agreement={r['oracles_agree']}")
    elif topic == "sc":
        probe = r["probe"]
        lines.append(f"  element: {r['element']}")
        lines.append("  frame -> norm enclosure")
        for f, (lo, hi) in zip(probe["frames"], probe["enclosures"]):
            lines.append(f"    {f} -> [{lo}, {hi}]")
        lines.append(f"  verdict: {probe['verdict']}"
                     f" (non-increasing={probe['non_increasing']})")
    elif topic == "boundary":
        res = r["result"]
        lines.append(f"  boundary has {res['size']} character(s);"
                     f" routes agree: {res['routes_agree']}")
        lines.append(f"  supports: {res['supports']}")
    elif topic == "freeness":
        for v in r["verdicts"]:
            lines.append(f"  g={v['grading']}: {v['status']}"
                         f" (fixed={v['fixed']}, moved={v['moved']},"
                         f" unresolved={v['unresolved']}) {v['note']}")
    elif topic == "ideals":
        lines.append(f"  {r['count']} ideals ({r['nonempty']} non-empty) at"
                     f" radius {r['params']['radius']},"
                     f" depth {r['params']['trace_depth']}")
    elif topic == "invsgp":
        lines.append(f"  {r['distinct_words']} distinct words over"
                     f" {r['grading_values']} gradings; laws: {r['laws']}")
    elif topic == "spectrum":
        lines.append(f"  {r['characters']} characters; identity law:"
                     f" {r['identity_law']}; composition law checked"
                     f" {r['composition_law']['checked']} triples with"
                     f" {r['composition_law']['failures']} failures")
    elif topic == "fock":
        lines.append(f"  projection identity on {r['projection_identity']['pairs']}"
                     f" pairs: {r['projection_identity']['ok']};"
                     f" band multiplicativity: {r['multiplicative_on_band']};"
                     f" expectation routes agree:"
                     f" {r['expectation_two_routes_agree']}")
    return "\n".join(lines)


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="sgclab",
        description="deterministic ideal/word/boundary analyses for monoid models")
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="run analyses from a config document")
    an.add_argument("--config", help="path to a JSON config document")
    an.add_argument("--family", choices=["free_abelian", "free_monoid", "numerical"])
    an.add_argument("--rank", type=int)
    an.add_argument("--generators", help="comma-separated, e.g. 2,3")
    an.add_argument("--analyses", help="comma-separated subset of: " + ",".join(ANALYSES))
    an.add_argument("--depth", type=int, help="trace depth cap")
    an.add_argument("--gen-len", type=int)
    an.add_argument("--radius", type=int)
    an.add_argument("--trunc", type=int)
    an.add_argument("--f-chain", type=int)
    an.add_argument("--ore-len", type=int)
    an.add_argument("--samples", type=int)
    an.add_argument("--seed", type=int)
    an.add_argument("--out", help="write the JSON report here")
    an.add_argument("--matrix-dump", help="write generator shift matrices "
                                          "(sparse triplet text) into this directory")
    an.add_argument("--cache-dir", default=os.environ.get("SGCLAB_CACHE_DIR"),
                    help="report cache directory (env: SGCLAB_CACHE_DIR)")

    ex = sub.add_parser("explain", help="render one report topic as prose")
    ex.add_argument("report")
    ex.add_argument("topic")
    return parser.parse_args(argv)


def _doc_from_args(args) -> dict:
    doc = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if args.family:
        model = {"family": args.family}
        if args.rank is not None:
            model["rank"] = args.rank
        if args.generators:
            model["generators"] = [int(x) for x in args.generators.split(",")]
        doc["model"] = model
    if args.analyses:
        doc["analyses"] = args.analyses.split(",")
    caps = dict(doc.get("caps", {}))
    for flag, cap in (("depth", "trace_depth"), ("gen_len", "gen_len"),
                      ("radius", "radius"), ("trunc", "trunc"),
                      ("f_chain", "f_chain"), ("ore_len", "ore_len"),
                      ("samples", "samples")):
        val = getattr(args, flag)
        if val is not None:
            caps[cap] = val
    if caps:
        doc["caps"] = caps
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.out:
        doc["out"] = args.out
    return doc


def _cache_path(directory: str, config: RunConfig) -> str:
    """Cache entry of a config; the key covers the code and schema versions,
    so a report from other code is never served."""
    doc = {"config": config.canonical(), "schema_version": SCHEMA_VERSION,
           "version": __version__}
    key = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    return os.path.join(directory, f"{key}.json")


def _read_cache(path: str):
    """The cached report, or None when the entry is missing or unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (FileNotFoundError, ValueError):
        return None


def _write_cache(path: str, text: str):
    """Write through a temporary file in the cache directory and rename it
    into place, so an interrupted run leaves no partial entry."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _dump_matrices(config: RunConfig, directory: str):
    model = build_model(config.model_config)
    caps = _caps_for(model, config.caps)
    os.makedirs(directory, exist_ok=True)
    from .ideals import WordTrace
    for k, s in enumerate(model.generators):
        word = invsgp.make_vword(model, WordTrace(((model.unit, s),)),
                                 caps["radius"])
        op = fock.rep_vword(word, caps["trunc"])
        path = os.path.join(directory, f"shift_{k}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(op.to_triplet_text())


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.command == "explain":
            with open(args.report, "r", encoding="utf-8") as fh:
                report = json.load(fh)
            print(explain(report, args.topic))
            return 0
        doc = _doc_from_args(args)
        config = RunConfig.from_dict(doc)
        cache_path = (_cache_path(args.cache_dir, config)
                      if args.cache_dir else None)
        report = _read_cache(cache_path) if cache_path else None
        if report is not None:
            code = 0 if all(r.get("tier") != "inconclusive"
                            for r in report["results"].values()) else 2
        else:
            report, code = run(config)
            if cache_path:
                _write_cache(cache_path, report_to_json(report))
        if args.matrix_dump:
            _dump_matrices(config, args.matrix_dump)
        text = report_to_json(report)
        if config.out:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print(text, end="")
        return code
    except (ConfigError, ModelError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
