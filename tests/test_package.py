"""The package namespace: each module's public names, re-exported."""

import bellqkd
from bellqkd import filtering, metrics, protocol_sim, states

MODULES = (states, metrics, filtering, protocol_sim)


def test_package_all_is_the_modules_all():
    """bellqkd.__all__ is the modules' __all__ lists plus __version__, with
    no name twice, and each name is the module's own object."""
    assert bellqkd.__all__ == [name for mod in MODULES
                               for name in mod.__all__] + ["__version__"]
    assert len(set(bellqkd.__all__)) == len(bellqkd.__all__)
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(bellqkd, name) is getattr(mod, name), name
    assert bellqkd.__version__ == "0.1.0"
