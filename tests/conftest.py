import numpy as np
import pytest


@pytest.fixture
def forbid_einsum_path(monkeypatch):
    """Make planning an einsum contraction path raise AssertionError."""

    def forbidden(*args, **kwargs):
        raise AssertionError("einsum path planned")

    # np.einsum plans a contraction path through its module's einsum_path
    # whenever it is called with optimize set.
    monkeypatch.setitem(np.einsum.__wrapped__.__globals__, "einsum_path", forbidden)
    with pytest.raises(AssertionError, match="path planned"):
        np.einsum("ij,jk,kl->il", *[np.eye(2)] * 3, optimize=True)
