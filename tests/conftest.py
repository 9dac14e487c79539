import pytest
from hypothesis import settings

from cdnfi import bundled

# more examples for property tests that leave max_examples to the profile;
# CI selects it with --hypothesis-profile=ci, Tier-1 keeps the default
settings.register_profile("ci", max_examples=2000)


@pytest.fixture(scope="session")
def crc8():
    return bundled.load_circuit("crc8_pipeline")


@pytest.fixture(scope="session")
def crc8_stimulus():
    return bundled.load_circuit_stimulus("crc8_pipeline")


@pytest.fixture(scope="session")
def crc8_golden():
    return bundled.load_circuit_golden("crc8_pipeline")


@pytest.fixture(scope="session")
def lfsr():
    return bundled.load_circuit("lfsr_counter")


@pytest.fixture(scope="session")
def lfsr_stimulus():
    return bundled.load_circuit_stimulus("lfsr_counter")


@pytest.fixture(scope="session")
def lfsr_golden():
    return bundled.load_circuit_golden("lfsr_counter")
