import pytest

from h2cost.model import default_registry, default_scenarios, default_smr_params
from inputs import read_dataset


@pytest.fixture(scope="session")
def dataset():
    return read_dataset()


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture(scope="session")
def smr_params():
    return default_smr_params()


@pytest.fixture(scope="session")
def scenarios():
    return default_scenarios()


@pytest.fixture(scope="session")
def base_scenario(scenarios):
    return next(s for s in scenarios if s.name == "base-2020")


@pytest.fixture(scope="session")
def scenario_2050(scenarios):
    return next(s for s in scenarios if s.name == "aps-2050")
