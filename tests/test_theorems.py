"""Generated models against the paper's theorems.

Commutative monoids (N^k, the numerical semigroups, and F_1^+ = N) are
Ore, and for an Ore monoid the boundary quotient is C*_lambda(G): its
boundary is one full-support point that G fixes, so no grading acts
freely.  For F_n^+ the boundary quotient is the Cuntz algebra O_n, whose
depth-d fragment has n^d boundary characters.  Each generated run checks
these at default caps, and that the run's own bookkeeping holds: the
composition law never fails, the exit code follows the tiers, and the
orbit route either agrees with the maximal-filter route or gives no answer
and ``explain`` says why.  Numerical models on which the orbit route
degenerates stay in the strategy.
"""

import math

from hypothesis import example, given, settings, strategies as st

from sgclab.cli import RunConfig, explain, run


@st.composite
def model_runs(draw):
    """(model config, depth): numerical sets of 1-3 generators <= 7 with
    gcd 1, free_abelian and free_monoid of rank 1-3, at depth 1-2, and 3
    for rank <= 2."""
    family = draw(st.sampled_from(["numerical", "free_abelian",
                                   "free_monoid"]))
    if family == "numerical":
        gens = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3,
                             unique=True)
                    .map(sorted).filter(lambda g: math.gcd(*g) == 1))
        return {"family": family, "generators": gens}, draw(st.integers(1, 2))
    rank = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 3 if rank <= 2 else 2))
    return {"family": family, "rank": rank}, depth


@given(model_runs())
@example(({"family": "numerical", "generators": [4, 5]}, 2))  # no orbit route
@settings(max_examples=40, deadline=None, derandomize=True)
def test_generated_models_meet_the_boundary_theorems(case):
    config, depth = case
    doc = {"model": config, "analyses": ["ore", "boundary", "freeness"],
           "caps": {"trace_depth": depth}, "seed": 0}
    report, code = run(RunConfig.from_dict(doc))
    results = report["results"]
    tiers = {r["tier"] for r in results.values()}
    assert "error" not in tiers, results
    assert code == (2 if "inconclusive" in tiers else 0)
    assert results["spectrum"]["composition_law"]["failures"] == 0

    bd = results["boundary"]["result"]
    size = results["boundary"]["params"]["fragment_size"]
    rank = config.get("rank", 1)
    ore = config["family"] != "free_monoid" or rank == 1
    assert (results["ore"]["result"]["status"] == "ore_up_to") == ore
    if ore:
        assert bd["supports"] == [list(range(size))]
        verdicts = results["freeness"]["verdicts"]
        assert verdicts
        assert {v["status"] for v in verdicts} == {"not-free"}
    else:
        assert bd["size"] == rank ** depth

    if bd["orbit_route_size"] is None:
        assert not bd["routes_agree"]
        assert "route two gave no answer" in explain(report, "boundary")
    else:
        assert bd["orbit_route_size"] == bd["size"] and bd["routes_agree"]
