import types

import buoyancy


def test_all_lists_every_public_name_once_and_each_resolves():
    exported = buoyancy.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert hasattr(buoyancy, name), name
    public = {
        name
        for name, value in vars(buoyancy).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(exported)
