import re
import types
from pathlib import Path

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


def test_every_public_name_is_in_the_readme_library_surface():
    # a name exported without a line in the README's "Library surface"
    # section fails here, so the surface stays what the system uses or
    # the README documents
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`(\w+)`", section))
    assert sorted(set(sivkit.__all__) - named) == []
