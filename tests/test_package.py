"""The package namespace: lazily loaded public names."""

import sys

import pytest

import htfid

from helpers import fresh_python


def test_import_loads_no_submodule_and_not_numpy():
    code = (
        "import sys, htfid\n"
        "print('numpy' in sys.modules, sorted(m for m in sys.modules if m.startswith('htfid.')))\n"
    )
    assert fresh_python(code) == "False []"


def test_every_public_name_resolves_to_its_modules_object():
    assert len(htfid.__all__) == len(set(htfid.__all__)) == 45
    for name in htfid.__all__:
        value = getattr(htfid, name)
        assert value.__module__.startswith("htfid."), name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from htfid import *", namespace)
    assert set(htfid.__all__) <= set(namespace)
    assert set(htfid.__all__) <= set(dir(htfid))
    assert "__version__" in dir(htfid)


def test_submodules_resolve_and_unknown_names_raise():
    assert htfid.sim.integrate is htfid.integrate
    with pytest.raises(AttributeError, match="no_such_name"):
        htfid.no_such_name
