import inspect

import discflux as dx


def test_all_matches_public_imports():
    # every exported name resolves, and every public name imported by the
    # package is exported
    assert len(dx.__all__) == len(set(dx.__all__))
    public = {
        name
        for name, value in vars(dx).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(dx.__all__)
