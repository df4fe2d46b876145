"""The package namespace: every public name resolves lazily to its submodule's object."""

import sys

import numpy as np
import pytest

import oamsim


def test_all_names_resolve_to_their_submodule_objects():
    assert len(set(oamsim.__all__)) == len(oamsim.__all__)
    for name in oamsim.__all__:
        obj = getattr(oamsim, name)
        assert obj.__module__.startswith("oamsim.")
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_dir_and_star_import_list_the_public_names():
    assert set(oamsim.__all__) <= set(dir(oamsim))
    namespace = {}
    exec("from oamsim import *", namespace)
    for name in oamsim.__all__:
        assert namespace[name] is getattr(oamsim, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        oamsim.no_such_name
    assert not hasattr(oamsim, "no_such_name")


def test_version_and_errors_are_eager():
    for name in ("__version__", "ConfigError", "ConvergenceError", "DomainError"):
        assert name in vars(oamsim)


def test_ecqm_components_are_a_3x3_array():
    t = oamsim.ecqm([1.0, -2.0, 30.0], [0.1, 0.2, 0.5], 6.0e5)
    assert isinstance(t.components, np.ndarray)
    assert t.components.shape == (3, 3)
    assert t.components.dtype == np.float64
