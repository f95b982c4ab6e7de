import os

# One BLAS thread: the eigensolves oversubscribe a small host's cores when
# another process runs beside the suite. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from matym import DerivationCalculus


@pytest.fixture(scope="session")
def calc():
    return DerivationCalculus(2)


@pytest.fixture(scope="session")
def calc3():
    return DerivationCalculus(3)


@pytest.fixture(scope="session")
def xcalc():
    return DerivationCalculus(2, exact=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
