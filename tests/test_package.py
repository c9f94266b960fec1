import inspect

import kgbohm
from kgbohm import cli, construction, errors, measure, minkowski, trajectory, wavefield

MODULES = (minkowski, wavefield, construction, trajectory, measure, errors)


def test_every_public_name_is_exported_as_the_same_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(kgbohm, name) is getattr(module, name), (module, name)
    assert sorted(kgbohm.__all__) == sorted(
        ["__version__", *(name for m in MODULES for name in m.__all__)]
    )
    assert len(set(kgbohm.__all__)) == len(kgbohm.__all__)


def test_cli_entry_points_are_plain_functions():
    assert {"build_parser", "main"} <= set(cli.__all__)
    for fn in (cli.build_parser, cli.main):
        assert inspect.isfunction(fn) and fn.__module__ == "kgbohm.cli"
