import numpy as np
import pytest

from stopgap.instances import make_1d, make_bp, make_iidg, make_ntc, make_pqp


@pytest.fixture(scope="session")
def one_d():
    return make_1d()


@pytest.fixture(scope="session")
def iidg():
    return make_iidg()


@pytest.fixture(scope="session")
def ntc():
    return make_ntc()


@pytest.fixture(scope="session")
def pqp():
    return make_pqp()


@pytest.fixture(scope="session")
def bp():
    return make_bp()


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
