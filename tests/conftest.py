import os

# the CLI caps BLAS at one thread before numpy loads (`cli.main`); the tests
# run under the same cap, so a forked lane never copies idle BLAS threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest

from qsh_lab.liealg import enumerate_so_star_basis
from qsh_lab.linmodel import build_flat_model


@pytest.fixture(scope="session")
def model2():
    return build_flat_model(2)


@pytest.fixture(scope="session")
def model3():
    return build_flat_model(3)


@pytest.fixture(scope="session")
def basis2(model2):
    return enumerate_so_star_basis(model2)


@pytest.fixture(scope="session")
def basis3(model3):
    return enumerate_so_star_basis(model3)
