import pytest

import condrand.distributions as distributions


@pytest.fixture
def empty_memo(monkeypatch):
    """An empty memo of float laws, chain tables and covariance blocks for
    one test; the process's own memo comes back after it."""
    memo = distributions._Memo()
    monkeypatch.setattr(distributions, "_memo", memo)
    return memo
