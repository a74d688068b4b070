import pytest

from pptriples import build_sieve, enumerate_ppts

from oracles import phi_table


@pytest.fixture(scope="session")
def oracle_1e5():
    return enumerate_ppts(100_000)


@pytest.fixture(scope="session")
def prefix_1e6():
    return build_sieve(1_000_000)


@pytest.fixture(scope="session")
def sieve_1e6(prefix_1e6):
    return phi_table(prefix_1e6)
