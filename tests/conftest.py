from collections import OrderedDict

import pytest

import condrand.covariance as covariance


@pytest.fixture
def empty_memo(monkeypatch):
    """An empty covariance-block memo for one test; the process's own memo
    comes back after it."""
    memo = OrderedDict()
    monkeypatch.setattr(covariance, "_memo", memo)
    return memo
