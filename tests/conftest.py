import pytest

from domelim.game import Restriction

from fixtures import G_BELIEF, G_MIX, G_ONE, G_PD


@pytest.fixture
def g_pd():
    return G_PD


@pytest.fixture
def g_mix():
    return G_MIX


@pytest.fixture
def g_belief():
    return G_BELIEF


@pytest.fixture
def g_one():
    return G_ONE


@pytest.fixture
def r_pd(g_pd):
    return Restriction.full(g_pd)


@pytest.fixture
def r_mix(g_mix):
    return Restriction.full(g_mix)


@pytest.fixture
def r_belief(g_belief):
    return Restriction.full(g_belief)


@pytest.fixture
def r_one(g_one):
    return Restriction.full(g_one)
