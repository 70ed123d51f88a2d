import zenosim


def test_all_names_resolve_once_and_star_import_binds_them():
    assert len(set(zenosim.__all__)) == len(zenosim.__all__)
    for name in zenosim.__all__:
        assert hasattr(zenosim, name), name
    namespace = {}
    exec("from zenosim import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(zenosim.__all__)
