import pytest

from helpers import golden_instance


@pytest.fixture(scope="session")
def golden():
    return golden_instance()


@pytest.fixture(scope="session")
def golden_matrix(golden):
    from mgimplicit import representation_matrix

    return representation_matrix(golden, (3, 1))


@pytest.fixture(scope="session")
def golden_delta(golden_matrix):
    from mgimplicit import strand_determinant

    return strand_determinant([golden_matrix])
