"""Batch driver: ingest a model config, run selected analyses, emit
human-readable and JSON reports.  Every report form is written here; the
analysis layers return plain data.

Reports are deterministic for a fixed config and seed: all sampling uses a
seeded generator, every container is serialized in canonical order, and
wall-clock data is segregated under the top-level "timings" key so the
rest of the document is byte-stable.

Exit codes: 0 when every requested analysis produced a definite verdict,
2 when some verdict is inconclusive, 1 on errors (an analysis of tier
"error" among them).
A ``--cache-dir`` hit writes the stored report text unchanged, with the
exit code of its tiers, and runs no analysis.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import random
import sys
import tempfile
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _esc

from . import __version__
from . import fock, invsgp, spectrum
from .ideals import (CapExceeded, ConstructibleIdeal, WordTrace,
                     enumerate_ideals, independence_rank_oracle,
                     independence_test, ore_test)
from .models import ModelError, build_model

SCHEMA_VERSION = 1

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


def _object(value, what):
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    return value


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
        """Check a config document once; malformed fields raise ConfigError."""
        if "model" not in _object(doc, "the config document"):
            raise ConfigError("config needs a 'model' section")
        known = ["model", "analyses", "caps", "seed", "freeness_g", "out"]
        for key in doc:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}; known: {known}")
        analyses = doc.get("analyses", list(ANALYSES))
        if not (isinstance(analyses, list)
                and all(isinstance(a, str) for a in analyses)):
            raise ConfigError(f"'analyses' must be a list of names, got {analyses!r}")
        # an empty list would run nothing, yet exit 0 on an empty report
        if not analyses:
            raise ConfigError("'analyses' must name at least one analysis;"
                              " leave it out to run them all")
        bad = [a for a in analyses if a not in ANALYSES]
        if bad:
            raise ConfigError(f"unknown analyses {bad}; known: {list(ANALYSES)}")
        seed = doc.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError(f"'seed' must be an int, got {seed!r}")
        freeness_g = doc.get("freeness_g")
        # an empty list would test nothing, yet read as a freeness result
        if freeness_g is not None and not (isinstance(freeness_g, list)
                                           and freeness_g):
            raise ConfigError("'freeness_g' must be null or a nonempty list, "
                              f"got {freeness_g!r}")
        out = doc.get("out")
        if out is not None and not isinstance(out, str):
            raise ConfigError(f"'out' must be null or a path, got {out!r}")
        caps = dict(DEFAULT_CAPS)
        caps.update(_object(doc.get("caps", {}), "'caps'"))
        for key, val in caps.items():
            if key not in DEFAULT_CAPS:
                raise ConfigError(f"unknown cap {key!r}")
            # null stands for the model default, so only where there is one
            if (val is not None or DEFAULT_CAPS[key] is not None) and (
                    isinstance(val, bool) or not isinstance(val, int) or val < 0):
                raise ConfigError(f"cap {key!r} must be a non-negative int")
        # each analysis follows those it reads: one backward pass closes
        closure = set(analyses)
        for name in reversed(ANALYSES):
            if name in closure:
                closure.update(PIPELINE[name][1])
        ordered = tuple(a for a in ANALYSES if a in closure)
        # unread elements would still land in the report and the cache key
        if freeness_g is not None and "freeness" not in ordered:
            raise ConfigError("'freeness_g' is given but the freeness "
                              "analysis does not run")
        return RunConfig(
            model_config=doc["model"],
            analyses=ordered,
            caps=caps,
            seed=seed,
            freeness_g=freeness_g,
            out=out,
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
    """The caps with the model's defaults filled in.  A length cap past
    the family's listing limit raises ModelError here, before any analysis
    reaches that length."""
    out = dict(caps)
    if out["gen_len"] is None:
        out["gen_len"] = model.default_gen_len
    if out["radius"] is None:
        out["radius"] = model.default_radius
    if out["trunc"] is None:
        out["trunc"] = model.default_trunc
    limit = model.max_listing_len
    for key in ("gen_len", "radius", "trunc", "ore_len"):
        if limit is not None and out[key] > limit:
            raise ModelError(f"cap {key!r} is {out[key]}, past the"
                             f" {model.family} listing limit {limit}")
    return out


# ---------------------------------------------------------------------------
# Report forms.  The analysis layers return plain data and these write it.
# ``prefixes`` is the run's memo of an ideal's rendered members prefix and
# token, keyed ``(token, radius)``: the lattice's nodes fill it before the
# word export reads it.

def _trace_json(model, trace):
    return [[model.render(p), model.render(q)] for p, q in trace.pairs]


def _ideal_json(x, radius, prefixes, trace=None):
    """An ideal listing its first 20 members up to ``radius``; ``trace``
    passes its provenance already rendered."""
    model = x.model
    got = prefixes.get((x.exact, radius))
    if got is None:
        got = prefixes[x.exact, radius] = (
            [model.render(a) for a in x.members_prefix(radius, 20)],
            model.render_token(x.exact))
    if trace is None and x.trace is not None:
        trace = _trace_json(model, x.trace)
    return {"trace": trace, "radius": radius, "members_prefix": got[0],
            "exact": got[1], "empty": x.is_empty()}


def _lattice_json(lat, prefixes):
    nodes = [{**_ideal_json(x, lat.radius, prefixes), "id": i, "depth": d}
             for i, (x, d) in enumerate(zip(lat.ideals, lat.depths))]
    return {"model": lat.model.config(), "tier": "exact", "radius": lat.radius,
            "params": lat.params, "nodes": nodes,
            "containment_hasse": [list(e) for e in lat.hasse],
            "empty_index": lat.empty_index}


def _word_json(v, radius, prefixes):
    """A word; a side renders as the ideal of its trace (the starred trace
    for the domain), the canonical empty ideal on zero.  The trace is
    rendered once, for the word and its range side."""
    model, trace = v.model, v.trace
    dom_trace = None if trace is None else trace.star()
    shown = None if trace is None else _trace_json(model, trace)
    return {
        "zero": v.is_zero,
        "trace": shown,
        "grading": None if v.is_zero else model.render(v.grading),
        "dom": _ideal_json(ConstructibleIdeal(model, dom_trace, v.dom),
                           radius, prefixes),
        "ran": _ideal_json(ConstructibleIdeal(model, trace, v.ran),
                           radius, prefixes, shown),
    }


def _family_json(fam, prefixes):
    radius = fam.params["radius"]
    return {"members": [_word_json(v, radius, prefixes) for v in fam.members],
            "zero_seen": fam.zero is not None,
            "gradings": [fam.model.render(g) for g in fam.gradings()],
            "equality_pairs_logged": fam.duplicates, "params": fam.params}


# ---------------------------------------------------------------------------
# Analyses

def _an_ideals(model, caps, rng, store):
    lat = enumerate_ideals(model, caps["trace_depth"], caps["gen_len"],
                           caps["radius"], caps["max_ideals"])
    store["lattice"] = lat
    store["lattice_json"] = _lattice_json(lat, store["prefixes"])
    return {
        "op": "ideals.enumerate_ideals",
        "params": {"trace_depth": caps["trace_depth"], "gen_len": caps["gen_len"],
                   "radius": caps["radius"], "cap": caps["max_ideals"]},
        "count": len(lat.ideals),
        "nonempty": len(lat.nonempty_indices()),
        "lattice": store["lattice_json"],
    }, "exact"


def _an_independence(model, caps, rng, store):
    lat = store["lattice"]
    comb = independence_test(lat)
    rank = independence_rank_oracle(lat)
    agree = None
    if rank.status != "inconclusive":
        agree = ((comb.status == "independent") == (rank.status == "full_rank"))
    tier = "exact" if agree else "inconclusive"
    store["lattice_json"]["flags"] = {
        "independence": comb.status,
        "witness": comb.witness,
        "witness_parts": list(comb.parts),
        "rank": rank.status,
    }
    return {
        "op": "ideals.independence_test",
        "params": {"fragment_size": len(lat.ideals), "radius": lat.radius},
        "combinatorial": {"status": comb.status, "witness": comb.witness,
                          "parts": list(comb.parts), "detail": comb.detail},
        "rank_oracle": dataclasses.asdict(rank),
        "oracles_agree": agree,
    }, tier


def _an_ore(model, caps, rng, store):
    res = ore_test(model, caps["ore_len"])
    return {
        "op": "ideals.ore_test",
        "params": {"max_len": caps["ore_len"]},
        "result": {"status": res.status, "level": res.level,
                   "pair": None if res.pair is None
                   else [model.render(a) for a in res.pair]},
    }, "exact"


def _index_pairs(rng, m):
    """All m * m index pairs row by row, or 400 drawn without listing them."""
    picks = rng.sample(range(m * m), 400) if m * m > 400 else range(m * m)
    return [divmod(k, m) for k in picks]


def _an_invsgp(model, caps, rng, store):
    fam = invsgp.enumerate_vwords(model, caps["trace_depth"], caps["gen_len"],
                                  caps["radius"])
    store["family"] = fam
    unit = model.unit
    involution_ok = all(
        invsgp.vword_eq(invsgp.compose(invsgp.compose(v, invsgp.star(v)), v), v)
        for v in fam.members)
    # compose's grading must be the one its composite trace denotes
    grading_ok = True
    for i, j in _index_pairs(rng, len(fam.members)):
        vw = invsgp.compose(fam.members[i], fam.members[j])
        if not vw.is_zero and vw.grading != vw.trace.grading(model):
            grading_ok = False
    # a unit-graded word's range (its trace's walk) is its domain (its
    # starred trace's walk)
    collapse_ok = all(v.is_idempotent() for v in fam.members
                      if v.grading == unit)
    # the closure fills every row, so this is the triples' sorted order
    table = [[i, j, k]
             for i, row in enumerate(invsgp.semilattice(store["lattice"]))
             for j, k in enumerate(row)]
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
        "export": _family_json(fam, store["prefixes"]),
    }, tier


def _an_spectrum(model, caps, rng, store):
    frag = spectrum.Fragment.from_lattice(store["lattice"])
    ctx = spectrum.ThetaContext(frag, store["family"])
    store["fragment"] = frag
    store["theta"] = ctx
    chars = spectrum.enumerate_characters(frag)
    identity_ok = ctx.table(model.unit) == chars
    # theta_g1(theta_g2(chi)) == theta_g1g2(chi) wherever both sides are
    # images, table against table.  Each entry of g2's table that is not
    # OUTSIDE stands for |G| triples, each checked or skipped at the
    # fragment edge, so only the checked ones are counted.  A product no
    # word carries has the all-outside table and is passed over unread,
    # and a g2 with no image forms no product at all.
    checked = failures = defined = 0
    gradings = ctx.gradings()
    for g2 in gradings:
        t2 = ctx.table(g2)
        defined += len(t2) - t2.count(spectrum.OUTSIDE)
        images = [(chi, a) for chi, a in enumerate(t2) if a >= 0]
        if not images:
            continue
        for g1 in gradings:
            g12 = model.mul(g1, g2)
            if g12 not in ctx.family.by_grading:
                continue
            t1, t12 = ctx.table(g1), ctx.table(g12)
            for chi, a in images:
                if t1[a] >= 0 and t12[chi] >= 0:
                    checked += 1
                    failures += t1[a] != t12[chi]
    tier = "exact" if identity_ok and failures == 0 else "inconclusive"
    return {
        "op": "spectrum.enumerate_characters",
        "params": {"fragment_size": frag.size(), "gradings": len(gradings)},
        "characters": len(chars),
        "identity_law": identity_ok,
        "composition_law": {"checked": checked, "failures": failures,
                            "skipped_at_fragment_edge":
                                defined * len(gradings) - checked},
    }, tier


def _an_boundary(model, caps, rng, store):
    ctx = store["theta"]
    res = spectrum.boundary(ctx)
    store["boundary"] = res
    frag = store["fragment"]
    support = functools.cache(lambda chi: list(frag.support(chi)))
    tables = [(model.render(g), ctx.table(g)) for g in ctx.gradings()]
    edges = [[support(chi), name, support(table[chi])]
             for chi in sorted(res.chars, key=frag.up_masks.__getitem__)
             for name, table in tables if table[chi] >= 0]
    tier = "band-limited" if res.routes_agree else "inconclusive"
    return {
        "op": "spectrum.boundary",
        "params": {"fragment_size": frag.size()},
        "result": {
            "size": len(res.chars),
            "supports": sorted(support(chi) for chi in res.chars),
            "maximal_seed_count": len(res.maximal_seeds),
            "orbit_route_size": (None if res.orbit_route is None
                                 else len(res.orbit_route)),
            "routes_agree": res.routes_agree,
            "unresolved_instances": res.unresolved_instances,
        },
        "orbit_edges": edges,
    }, tier


def _an_freeness(model, caps, rng, store):
    ctx = store["theta"]
    bd = store["boundary"]
    g_list = store["freeness_g"]
    if g_list is None:
        g_list = list(ctx.gradings())
    verdicts = spectrum.topological_freeness_probe(ctx, bd.chars, g_list)
    rendered = [{"grading": model.render(v.grading), "status": v.status,
                 "fixed": len(v.fixed), "moved": len(v.moved),
                 "unresolved": len(v.unresolved),
                 "witness_open": v.witness_open, "note": v.note}
                for v in map(verdicts.__getitem__, g_list)]
    # a probe that tested no grading is no verdict about freeness
    inconclusive = not g_list or any(v.status == "inconclusive"
                                     for v in verdicts.values())
    return {
        "op": "spectrum.topological_freeness_probe",
        "params": {"tested_gradings": len(g_list)},
        "verdicts": rendered,
    }, ("inconclusive" if inconclusive else "band-limited")


def _an_fock(model, caps, rng, store):
    n = caps["trunc"]
    lat = store["lattice"]
    fam = store["family"]
    # the check keeps its masks local, so they are freed before any word
    # matrix is built
    pairs_checked, proj_ok = fock.check_projection_identity(lat, n)
    ops = {}

    def word_op(v):
        """One matrix per family word, built when first read: a word whose
        reach exceeds the truncation raises at the same read as ever."""
        key = v.dedup_key()
        if key not in ops:
            ops[key] = fock.rep_vword(v, n)
        return ops[key]

    mult_ok = True
    for _ in range(caps["samples"]):
        v, w = rng.choice(fam.members), rng.choice(fam.members)
        a, b = word_op(v), word_op(w)
        # a nonzero composite reaches the sum of the two reaches, so its
        # matrix raises wherever the product's band would fall below 0;
        # the product raises there only for the zero word
        rhs = fock.rep_vword(invsgp.compose(v, w), n)
        if not fock.equal_on_band(fock.mul_op(a, b), rhs):
            mult_ok = False
    exp_ok = fock.cond_expectation([(v, word_op(v)) for v in fam.members])
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
    terms = fock.generator_covariance_terms(model)
    chain = fock.default_f_chain(model, fam.by_grading.keys(), caps["f_chain"])
    probe = fock.sc_limit_probe(terms, chain, model, n)
    tier = "band-limited" if probe.verdict != "inconclusive" else "inconclusive"
    return {
        "op": "fock.sc_limit_probe",
        "params": {"trunc": n, "chain_length": len(chain)},
        "element": "inclusion-exclusion defect of the generator masks",
        "probe": {
            "frames": [[model.render(g) for g in f] for f in probe.frames],
            "enclosures": [[f"{lo.numerator}/{lo.denominator}",
                            f"{hi.numerator}/{hi.denominator}"]
                           for lo, hi in probe.enclosures],
            "non_increasing": probe.non_increasing,
            "verdict": probe.verdict,
            "band": probe.band,
        },
    }, tier


# name -> (runner, the analyses it reads), each after those it reads
PIPELINE = {
    "ideals": (_an_ideals, ()),
    "independence": (_an_independence, ("ideals",)),
    "ore": (_an_ore, ()),
    "invsgp": (_an_invsgp, ("ideals",)),
    "spectrum": (_an_spectrum, ("ideals", "invsgp")),
    "boundary": (_an_boundary, ("spectrum",)),
    "freeness": (_an_freeness, ("boundary",)),
    "fock": (_an_fock, ("ideals", "invsgp")),
    "sc": (_an_sc, ("invsgp",)),
}

ANALYSES = tuple(PIPELINE)


# what a truncation or cap cannot certify: inconclusive, not an error
CANNOT_CERTIFY = (fock.BandExhausted, CapExceeded)


def _exit_code(results) -> int:
    """1 when some result's tier is error, else 2 when one is
    inconclusive, else 0."""
    tiers = {r["tier"] for r in results.values()}
    return 1 if "error" in tiers else 2 if "inconclusive" in tiers else 0


def run(config: RunConfig):
    """Execute the configured analyses in dependency order.

    Returns (report_dict, exit_code).  Analyses run sequentially, in one
    process, so reports are deterministic; per-analysis errors are reported
    without aborting the rest of the run.  An analysis that raises
    ``CANNOT_CERTIFY`` is inconclusive, one that raises anything else is an
    error, carrying under ``where`` the innermost sgclab function of its
    traceback, and an analysis reading one that raised is skipped.  The
    ``freeness_g`` elements are parsed first, so a malformed one, the
    identity or one grading listed twice raises ModelError before any
    analysis.
    """
    model = build_model(config.model_config)
    caps = _caps_for(model, config.caps)
    store = {"freeness_g": None if config.freeness_g is None
             else [model.parse(g) for g in config.freeness_g],
             "prefixes": {}}
    gradings = store["freeness_g"] or ()
    if model.unit in gradings:
        raise ModelError("'freeness_g' lists the identity, which fixes "
                         "every character")
    twice = [g for k, g in enumerate(gradings) if g in gradings[:k]]
    if twice:
        raise ModelError(f"'freeness_g' lists {model.render(twice[0])!r} twice")
    results = {}
    timings = {}
    missing = {}   # analysis -> why its store entries are absent
    for name in config.analyses:
        rng = random.Random((config.seed, name).__repr__())
        t0 = time.perf_counter()
        runner, reads = PIPELINE[name]
        dep = next((d for d in reads if d in missing), None)
        if dep is not None:
            result = {"op": name, "skipped": f"reads {dep}, which {missing[dep]}"}
            tier = "inconclusive"
            missing[name] = "was skipped"
        else:
            try:
                result, tier = runner(model, caps, rng, store)
            except Exception as exc:
                result = {"op": name, "error": f"{type(exc).__name__}: {exc}"}
                if isinstance(exc, CANNOT_CERTIFY):
                    tier = "inconclusive"
                else:
                    tier = "error"
                    # the innermost sgclab frame (run's own frame is one),
                    # without a line number, so it stays put when code moves
                    tb = exc.__traceback__
                    while tb is not None:
                        frame = tb.tb_frame
                        module = frame.f_globals.get("__name__", "")
                        if module.startswith("sgclab."):
                            result["where"] = (f"{module[len('sgclab.'):]}."
                                               f"{frame.f_code.co_name}")
                        tb = tb.tb_next
                missing[name] = "raised"
        timings[name] = round(time.perf_counter() - t0, 6)
        result["tier"] = tier
        results[name] = result
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "sgclab", "version": __version__},
        "config": config.canonical(),
        "results": results,
        "timings": timings,
    }
    return report, _exit_code(results)


def report_to_json(report: dict) -> str:
    """The report as ``json.dumps(report, sort_keys=True, indent=2) + "\\n"``
    writes it, byte for byte.  That call is not made because CPython 3.11
    drops to its pure-Python encoder whenever ``indent`` is set.

    One recursive writer fills a single list of chunks.  A container
    appends its opening, separator and closing strings, made once per
    nesting depth in this call, and its str and int leaves' texts; it
    builds no string or list of its own, so each byte is copied once, not
    once per nesting level.  When a container starts with 8192 or more
    chunks pending, they are joined into a block, which bounds the list
    and the small strings it holds; the blocks are joined once at the end.
    Takes only what reports hold (dicts with str keys, lists, tuples, str,
    int, bool, None, finite floats) and raises TypeError or ValueError on
    anything else rather than drift from ``json.dumps``.  Leaves are told
    apart by ``type(v) is``, so a bool is never written as an int."""
    blocks, chunks, levels = [], [], []
    append = chunks.append

    def write(o, depth):
        t = type(o)
        if t is dict or t is list or t is tuple:
            if not o:
                return append("{}" if t is dict else "[]")
            if len(chunks) >= 8192:
                blocks.append("".join(chunks))
                chunks.clear()
            if depth == len(levels):
                inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
                levels.append(("{" + inner, "[" + inner, "," + inner,
                               outer + "}", outer + "]"))
            open_dict, open_list, sep, close_dict, close_list = levels[depth]
            depth += 1
            if t is dict:  # _esc refuses a key that is not a str
                append(open_dict)
                for k, v in sorted(o.items()):
                    append(_esc(k))
                    append(": ")
                    if (tv := type(v)) is str:
                        append(_esc(v))
                    elif tv is int:
                        append(int.__repr__(v))
                    else:
                        write(v, depth)
                    append(sep)
                chunks[-1] = close_dict  # in place of the last separator
            else:
                append(open_list)
                for v in o:
                    if (tv := type(v)) is str:
                        append(_esc(v))
                    elif tv is int:
                        append(int.__repr__(v))
                    else:
                        write(v, depth)
                    append(sep)
                chunks[-1] = close_list
        elif t is str:
            append(_esc(o))
        elif t is int:
            append(int.__repr__(o))
        elif t is bool:
            append("true" if o else "false")
        elif o is None:
            append("null")
        elif t is float and math.isfinite(o):
            append(float.__repr__(o))
        else:
            error = ValueError if t is float else TypeError
            raise error(f"no JSON form for the {t.__name__} {o!r:.60}")

    write(report, 0)
    append("\n")
    blocks.append("".join(chunks))
    chunks.clear()  # freed before the final join, which holds the peak
    return "".join(blocks)


def stable_body(report: dict) -> str:
    """The report minus segregated timing data, canonically serialized as
    ``json.dumps(body, sort_keys=True, indent=2) + "\\n"``, by
    ``report_to_json``'s writer."""
    return report_to_json({k: v for k, v in report.items() if k != "timings"})


def explain(report: dict, topic: str) -> str:
    """Prose rendering of one analysis verdict with its witnesses; a
    document that is not a report raises ConfigError."""
    results = _object(_object(report, "the report").get("results", {}),
                      "the report's 'results'")
    if topic not in results:
        raise ConfigError(f"topic {topic!r} not in report; "
                          f"have: {sorted(results)}")
    r = _object(results[topic], f"the report's {topic!r} entry")
    try:
        return "\n".join(_explain_lines(topic, r))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"the report's {topic!r} entry lacks or garbles"
                          f" a field it renders: {exc!r}") from None


def _explain_lines(topic, r):
    lines = [f"{topic}: tier={r.get('tier')}"]
    for key in ("error", "skipped"):
        if key in r:
            lines.append(f"  {key}: {r[key]}")
            if "where" in r:
                lines.append(f"  where: {r['where']}")
            return lines
    if topic == "ore":
        res = r["result"]
        if res["status"] == "ore_up_to":
            lines.append(f"  every pair up to length {res['level']} has a common"
                         " right multiple")
        else:
            lines.append(f"  the pair {res['pair']} has disjoint principal ideals")
    elif topic == "independence":
        comb = r["combinatorial"]
        if comb["status"] == "witness":
            lines.append(f"  ideal #{comb['witness']} equals the union of"
                         f" smaller ideals {comb['parts']}")
        else:
            lines.append(f"  {comb['status']}: {comb['detail']}")
        rank = r["rank_oracle"]
        lines.append(f"  rank oracle: {rank['status']}"
                     f" (rank {rank['rank']} of {rank['nonempty']});"
                     f" agreement={r['oracles_agree']}")
        if rank["detail"]:
            lines.append(f"  rank oracle detail: {rank['detail']}")
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
        if res["orbit_route_size"] is None:
            lines.append("  route two gave no answer: no character lies in"
                         " every singleton closure (unresolved instances:"
                         f" {res['unresolved_instances']})")
    elif topic == "freeness":
        if not r["verdicts"]:
            lines.append("  no grading was tested: every word at the tested"
                         " depth has the identity grading")
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
    return lines


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
    an.add_argument("--depth", type=int, dest="trace_depth", help="trace depth cap")
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
            doc = _object(json.load(fh), "the config document")
    if args.family:
        model = {"family": args.family}
        if args.rank is not None:
            model["rank"] = args.rank
        if args.generators:
            try:
                model["generators"] = [int(x) for x in args.generators.split(",")]
            except ValueError:
                raise ConfigError(f"--generators must be comma-separated ints,"
                                  f" got {args.generators!r}") from None
        doc["model"] = model
    elif args.rank is not None or args.generators is not None:
        raise ConfigError("--rank and --generators need --family")
    if args.analyses:
        doc["analyses"] = args.analyses.split(",")
    caps = dict(_object(doc.get("caps", {}), "'caps'"))
    for cap in DEFAULT_CAPS:  # each cap flag's dest is its cap; max_ideals has none
        val = getattr(args, cap, None)
        if val is not None:
            caps[cap] = val
    if caps:
        doc["caps"] = caps
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.out:
        doc["out"] = args.out
    return doc


def _source_digest() -> str:
    """sha256 over the bytes of the package's ``*.py`` files, in name
    order; read only by a run with a cache, once."""
    digest, package = hashlib.sha256(), os.path.dirname(__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cache_path(directory: str, config: RunConfig) -> str:
    """Cache entry of a config; the key covers the source bytes, the
    version and the schema version, so other code's reports are never
    served, even under an unchanged version string."""
    doc = {"config": config.canonical(), "schema_version": SCHEMA_VERSION,
           "version": __version__, "source": _source_digest()}
    key = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    return os.path.join(directory, f"{key}.json")


def _read_cache(path: str):
    """The entry's text and exit code; None if it is missing, undecodable
    or not a report (an object whose ``results`` are objects, each with a
    str ``tier``)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
    except (FileNotFoundError, ValueError):
        return None
    results = doc.get("results") if isinstance(doc, dict) else None
    if not (isinstance(results, dict)
            and all(isinstance(r, dict) and isinstance(r.get("tier"), str)
                    for r in results.values())):
        return None
    return text, _exit_code(results)


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


def _shift_ops(config: RunConfig):
    """Each generator's truncated shift; raises BandExhausted when one
    reaches past the truncation."""
    model = build_model(config.model_config)
    trunc = _caps_for(model, config.caps)["trunc"]
    return [fock.rep_vword(invsgp.make_vword(
        model, WordTrace(((model.unit, s),))), trunc) for s in model.generators]


def _dump_matrices(ops, directory: str):
    os.makedirs(directory, exist_ok=True)
    for k, op in enumerate(ops):
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
        # a dump that cannot be built fails before any report is cached
        shifts = _shift_ops(config) if args.matrix_dump else None
        cache_path = (_cache_path(args.cache_dir, config)
                      if args.cache_dir else None)
        hit = _read_cache(cache_path) if cache_path else None
        if hit is None:
            report, code = run(config)
            text = report_to_json(report)
            if cache_path and code != 1:   # an error tier is never cached
                _write_cache(cache_path, text)
        else:
            text, code = hit
        if shifts is not None:
            _dump_matrices(shifts, args.matrix_dump)
        if config.out:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print(text, end="")
        return code
    except (ConfigError, ModelError, OSError, json.JSONDecodeError,
            fock.BandExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
