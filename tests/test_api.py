import arithreg


def test_all_names_the_package_exports():
    """Every name in __all__ is a package attribute and appears once, so a
    name left behind by a removal fails here and star imports succeed."""
    names = arithreg.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(arithreg, n)] == []
    namespace = {}
    exec("from arithreg import *", namespace)
    assert set(names) <= namespace.keys()
