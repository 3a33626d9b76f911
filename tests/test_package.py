import movingframes


def test_public_names_resolve_once():
    names = movingframes.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(movingframes, name)] == []
    namespace = {}
    exec("from movingframes import *", namespace)
    assert set(names) <= namespace.keys()
