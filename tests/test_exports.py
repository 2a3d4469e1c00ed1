"""The package's export list names only what the package defines."""

import moma


def test_every_export_resolves():
    namespace: dict = {}
    exec("from moma import *", namespace)  # raises on a name moma lacks
    assert sorted(set(moma.__all__)) == sorted(moma.__all__)
    assert all(namespace[name] is getattr(moma, name) for name in moma.__all__)
