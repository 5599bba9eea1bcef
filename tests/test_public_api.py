import asgc


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from asgc import *", namespace)
    assert [name for name in asgc.__all__ if name not in namespace] == []
    assert len(asgc.__all__) == len(set(asgc.__all__))
