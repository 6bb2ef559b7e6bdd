"""Shared test settings: every hypothesis test runs derandomized, with no
deadline and no example database, so each run sees the same examples.  The
``eigh_calls`` fixture records the shape of every LAPACK eigendecomposition
that ``capqubit.linalg`` makes during a test, and ``hamiltonian_builds`` the
shape of the controls of every call of the stacked Hamiltonian core."""

import numpy as np
import pytest
from hypothesis import settings

import capqubit.evolution
import capqubit.hamiltonian
import capqubit.linalg

settings.register_profile("capqubit", derandomize=True, deadline=None, database=None)
settings.load_profile("capqubit")


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    lapack_eigh = capqubit.linalg.np.linalg.eigh

    def counting(m):
        calls.append(np.shape(m))
        return lapack_eigh(m)

    monkeypatch.setattr(capqubit.linalg.np.linalg, "eigh", counting)
    return calls


@pytest.fixture
def hamiltonian_builds(monkeypatch):
    calls = []
    core = capqubit.hamiltonian._hamiltonians

    def counting(coupling, controls, d12):
        calls.append(np.shape(controls))
        return core(coupling, controls, d12)

    # evolution holds its own reference to the core
    for module in (capqubit.hamiltonian, capqubit.evolution):
        monkeypatch.setattr(module, "_hamiltonians", counting)
    return calls
