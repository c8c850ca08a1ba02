import chainplan


def test_every_public_name_resolves():
    missing = [name for name in chainplan.__all__ if not hasattr(chainplan, name)]
    assert missing == []
    assert len(set(chainplan.__all__)) == len(chainplan.__all__)


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from chainplan import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(chainplan.__all__)
