from collections import OrderedDict

import pytest

import condrand.sampling as sampling


@pytest.fixture
def empty_memo(monkeypatch):
    """An empty memo of chain tables and covariance blocks for one test; the
    process's own memo comes back after it."""
    memo = OrderedDict()
    monkeypatch.setattr(sampling, "_memo", memo)
    return memo
