import types

import sivkit


def test_all_is_exactly_the_public_names_bound_in_the_package():
    # a name dropped from the code but left in __all__ (or the reverse) fails here
    bound = {
        name
        for name, value in vars(sivkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(sivkit.__all__) == len(set(sivkit.__all__))
    assert set(sivkit.__all__) == bound
    for name in sivkit.__all__:
        assert getattr(sivkit, name) is not None
