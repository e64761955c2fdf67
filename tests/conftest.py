import json
import threading

import numpy as np
import pytest

from idlaw import exponent, lawio, simulate


@pytest.fixture(autouse=True)
def no_threads_left():
    """Fail a test that leaves more threads alive than it started with: a
    sampler's block threads end with its call."""
    before = threading.active_count()
    yield
    assert threading.active_count() <= before, f"threads left: {threading.enumerate()}"


@pytest.fixture()
def on_two_threads(monkeypatch):
    """Run a sampler call and return its result, failing unless two threads
    drew its blocks: the first two blocks meet at a barrier, which times out
    when one thread draws both."""

    def run(call):
        block = simulate._block
        meet = threading.Barrier(2, timeout=60)
        idents = []

        def met(g, *args):
            idents.append(threading.get_ident())
            if len(idents) <= 2:
                meet.wait()
            return block(g, *args)

        monkeypatch.setattr(simulate, "_block", met)
        try:
            out = call()
        finally:
            monkeypatch.setattr(simulate, "_block", block)
        assert len(set(idents)) == 2
        return out

    return run


@pytest.fixture(scope="session")
def gaussian_phi():
    return exponent.closed_form("gaussian")


@pytest.fixture(scope="session")
def drift_phi():
    return exponent.closed_form("dirac", shift=0.7)


@pytest.fixture(scope="session")
def cp_phi():
    return exponent.closed_form("compound_poisson", rate=2.0, jumps=[[2.0], [-2.0]])


@pytest.fixture(scope="session")
def mix_phi(gaussian_phi, cp_phi):
    return exponent.convolve(gaussian_phi, cp_phi)


@pytest.fixture(scope="session")
def law_family(gaussian_phi, drift_phi, cp_phi, mix_phi):
    return {
        "gaussian": gaussian_phi,
        "drift": drift_phi,
        "cp": cp_phi,
        "mix": mix_phi,
    }


@pytest.fixture(scope="session")
def grid9():
    return np.linspace(-3.0, 3.0, 9)[:, None]


@pytest.fixture(scope="session")
def grid5():
    return np.linspace(-2.0, 2.0, 5)[:, None]


class LeafCalls:
    """Top-level ``CharExponent.eval_grid`` calls: the rows of each, in order.

    A call made while another is running, such as a nested map's inner
    exponent, is part of the outer call and is not counted.
    """

    def __init__(self):
        self.rows: list[int] = []
        self.depth = 0

    @property
    def count(self) -> int:
        return len(self.rows)


@pytest.fixture()
def leaf_calls(monkeypatch):
    """A LeafCalls recording every eval_grid call the test makes."""
    calls = LeafCalls()
    eval_grid = exponent.CharExponent.eval_grid

    def recorded(self, Y, tol=None):
        if calls.depth == 0:
            calls.rows.append(len(Y))
        calls.depth += 1
        try:
            return eval_grid(self, Y, tol)
        finally:
            calls.depth -= 1

    monkeypatch.setattr(exponent.CharExponent, "eval_grid", recorded)
    return calls


@pytest.fixture()
def law_files(tmp_path):
    """Write every builtin law description to disk, return name -> path."""
    paths = {}
    for name, doc in lawio.BUILTIN_LAWS.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths
