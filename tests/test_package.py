"""The package's public names."""

import folres


def test_every_name_in_all_is_bound_on_folres():
    # `from folres import *` reads every name of __all__ from the package
    namespace = {}
    exec("from folres import *", namespace)
    assert sorted(set(folres.__all__)) == sorted(folres.__all__)
    assert [name for name in folres.__all__ if name not in namespace] == []
