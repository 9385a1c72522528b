import pytest

from sgclab.ideals import enumerate_ideals
from sgclab.invsgp import enumerate_vwords
from sgclab.models import build_model
from sgclab.spectrum import Fragment, ThetaContext


@pytest.fixture(scope="session")
def n1():
    return build_model({"family": "free_abelian", "rank": 1})


@pytest.fixture(scope="session")
def n2():
    return build_model({"family": "free_abelian", "rank": 2})


@pytest.fixture(scope="session")
def f2():
    return build_model({"family": "free_monoid", "rank": 2})


@pytest.fixture(scope="session")
def num23():
    return build_model({"family": "numerical", "generators": [2, 3]})


@pytest.fixture(scope="session")
def all_models(n1, n2, f2, num23):
    return (n1, n2, f2, num23)


# standard per-model enumeration parameters used across the suite:
# (trace depth, generator length, radius, truncation)
PARAMS = {
    "N^1": (3, 1, 30, 30),
    "N^2": (3, 1, 30, 12),
    "F2+": (3, 1, 6, 7),
    "<2,3>": (3, 3, 30, 30),
}


def params_for(model):
    return PARAMS[model.name]


@pytest.fixture(scope="session")
def lattice_of():
    cache = {}

    def get(model, depth=None, gen_len=None, radius=None):
        d0, g0, r0, _ = params_for(model)
        key = (model.name, depth or d0, gen_len or g0, radius or r0)
        if key not in cache:
            cache[key] = enumerate_ideals(model, depth or d0, gen_len or g0,
                                          radius or r0)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def family_of():
    cache = {}

    def get(model, depth=2, gen_len=None, radius=None):
        _, g0, r0, _ = params_for(model)
        key = (model.name, depth, gen_len or g0, radius or r0)
        if key not in cache:
            cache[key] = enumerate_vwords(model, depth, gen_len or g0,
                                          radius or r0)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def theta_of(lattice_of, family_of):
    cache = {}

    def get(model, depth=2):
        key = (model.name, depth)
        if key not in cache:
            lat = lattice_of(model, depth=depth)
            frag = Fragment.from_lattice(lat)
            fam = family_of(model, depth=depth)
            cache[key] = ThetaContext(frag, fam)
        return cache[key]

    return get
