"""Call spies shared by the test modules."""

import pytest

from gqem import jets
from test_jet_internals import KERNELS


@pytest.fixture
def spy(monkeypatch):
    """``spy(owner, name)`` records the arguments of each call of ``owner.name`` from then on.

    It returns the list of records; asking again for the same name empties
    that list, so a test body that runs once per `hypothesis` example counts
    each example's calls alone.
    """
    spied = {}

    def install(owner, name: str) -> list:
        if (owner, name) not in spied:
            calls, real = spied.setdefault((owner, name), []), getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *args, **kw: calls.append(args) or real(*args, **kw))
        spied[owner, name].clear()
        return spied[owner, name]

    return install


@pytest.fixture
def kernel_calls(monkeypatch):
    """The kernel of each jet product that reaches one, in call order: "row" or "dense"."""
    calls = []
    for kind, name in KERNELS.items():
        real = getattr(jets, name)
        monkeypatch.setattr(jets, name, lambda *args, _real=real, _kind=kind:
                            calls.append(_kind) or _real(*args))
    return calls
