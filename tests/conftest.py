import pytest

from signedpetersen.census import standard_mask, standard_representative
from signedpetersen.graphs import petersen
from signedpetersen.signed import SIX_ORDER


@pytest.fixture(scope="session")
def pg():
    return petersen()


@pytest.fixture(scope="session")
def reps():
    """The six minimal representatives, in fixed column order."""
    return [standard_representative(t) for t in SIX_ORDER]


@pytest.fixture(scope="session")
def rep_masks():
    return [standard_mask(t) for t in SIX_ORDER]


@pytest.fixture(scope="session")
def aut6(reps):
    from signedpetersen.groups import aut_signed
    return [aut_signed(s) for s in reps]


@pytest.fixture(scope="session")
def sw6(reps):
    from signedpetersen.groups import swaut
    return [swaut(s) for s in reps]
