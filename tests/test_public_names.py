"""Every name that `dimkit.__all__` lists resolves, and a star import binds
exactly those names."""

import dimkit


def test_every_public_name_resolves():
    assert len(set(dimkit.__all__)) == len(dimkit.__all__)
    for name in dimkit.__all__:
        assert getattr(dimkit, name, None) is not None, name
    namespace: dict = {}
    exec("from dimkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(dimkit.__all__)
