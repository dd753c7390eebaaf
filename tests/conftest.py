"""Session fixtures: the desk-scale studies shared across test modules."""

import time
import warnings

import pytest
from hypothesis import settings

from panel_causal import (
    DEFAULT_SUITE,
    PanelCausalWarning,
    Scenario,
    SuiteEntry,
    run_study,
)

from helpers import ACCEPT_SEED

# Property tests draw the same few examples on every run: each example fits
# every model of a method twice, and a failure must reproduce as it was seen.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=20)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def hom250_study():
    """Full 12-entry suite on HOM at n=250, R=1000, with wall time attached."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PanelCausalWarning)
        t0 = time.time()
        result = run_study(Scenario("HOM", 250), DEFAULT_SUITE, R=1000, seed=ACCEPT_SEED)
        elapsed = time.time() - t0
    return result, elapsed


@pytest.fixture(scope="session")
def homti500_study():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PanelCausalWarning)
        return run_study(
            Scenario("HOM_TI", 500), DEFAULT_SUITE, R=1000, seed=ACCEPT_SEED
        )


@pytest.fixture(scope="session")
def het250_study():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PanelCausalWarning)
        return run_study(Scenario("HET", 250), DEFAULT_SUITE, R=1000, seed=ACCEPT_SEED)


@pytest.fixture(scope="session")
def hom1000_ipwdid_study():
    """IPWDID-only suite on HOM at n=1000 for the 1/n variance scaling check."""
    suite = (SuiteEntry("IPWDID", ps_model="full"),)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PanelCausalWarning)
        return run_study(Scenario("HOM", 1000), suite, R=1000, seed=ACCEPT_SEED)
