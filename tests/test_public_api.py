import importlib

import pytest

import asgc
from conftest import fresh_python


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from asgc import *", namespace)
    assert [name for name in asgc.__all__ if name not in namespace] == []
    assert len(asgc.__all__) == len(set(asgc.__all__))


def test_importing_the_package_loads_no_numpy_or_scipy():
    script = "import asgc, sys; print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"
    run = fresh_python(["-c", script], timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_each_exported_name_is_its_defining_modules_object():
    for name in asgc.__all__:
        module = importlib.import_module(f"asgc.{asgc._MODULE_OF[name]}")
        value = getattr(asgc, name)
        assert value is getattr(module, name), name
        if hasattr(value, "__module__"):  # classes and functions name where they are defined
            assert value.__module__ == module.__name__, name


def test_dir_lists_every_exported_name():
    assert set(asgc.__all__) <= set(dir(asgc))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        asgc.not_a_name
