import random

import pytest

from trialgebra import cli, triality, lie_tools


@pytest.fixture(scope="session")
def dtheta():
    return triality.default_dtheta()


@pytest.fixture(scope="session")
def octonion_derivations():
    dim, basis = lie_tools.derivation_algebra(lie_tools.octonion_algebra_spec())
    return dim, basis


@pytest.fixture
def rng():
    return random.Random(20240)


@pytest.fixture(scope="session")
def golden_run(tmp_path_factory):
    """``verify --suite all --seed 7 --samples 100``, run once per session;
    returns the exit code and the report bytes."""
    out = tmp_path_factory.mktemp("golden") / "report.json"
    code = cli.main(["verify", "--suite", "all", "--seed", "7", "--samples", "100",
                     "--out", str(out)])
    return code, out.read_bytes()
