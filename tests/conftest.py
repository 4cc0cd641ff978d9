import numpy as np
import pytest

import kricci.flow


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


@pytest.fixture
def snapshot_history(monkeypatch):
    """``history(result)``: every snapshot the run that built ``result`` took,
    in order.  A run keeps only its last CENTERED_SNAPSHOTS snapshots; this
    records ``result.snapshots[-1]`` at each call of ``kricci.flow._diagnostics``,
    which the run makes once per snapshot, just after taking it."""
    taken = {}
    diagnostics = kricci.flow._diagnostics

    def recording(result, *args, **kwargs):
        taken.setdefault(id(result), (result, []))[1].append(result.snapshots[-1])
        return diagnostics(result, *args, **kwargs)

    monkeypatch.setattr(kricci.flow, "_diagnostics", recording)
    return lambda result: taken[id(result)][1]
