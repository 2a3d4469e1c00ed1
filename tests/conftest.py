import json
import importlib.resources as resources

import pytest

from moma import Objective, parse_model


def corpus_path(name: str) -> str:
    return str(resources.files("moma.corpus").joinpath(name))


@pytest.fixture(scope="session")
def fig1():
    doc = json.loads(resources.files("moma.corpus").joinpath("fig1.json").read_text())
    return parse_model(doc)


@pytest.fixture(scope="session")
def fig1_objectives():
    return [Objective("lra", "max", reward="R1"),
            Objective("total", "max", reward="R2")]


@pytest.fixture
def no_add(monkeypatch):
    """Qhull builds hulls but fails to add a point to one."""
    import scipy.spatial

    class NoAdd(scipy.spatial.ConvexHull):
        def add_points(self, *args, **kwargs):
            raise scipy.spatial.QhullError("QH6271 qhull topology error: wide merge")
    monkeypatch.setattr(scipy.spatial, "ConvexHull", NoAdd)
