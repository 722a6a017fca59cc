"""The package's public names are its modules' ``__all__``, each listed once."""

import collections
import sys

import pytest

import qmspace
from qmspace import core, curvature, ghdist, models, transport

MODULES = (core, models, ghdist, transport, curvature)


def test_every_module_name_is_the_packages():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qmspace, name) is getattr(module, name), name


def test_no_name_is_listed_twice():
    counts = collections.Counter(name for m in MODULES for name in m.__all__)
    assert [name for name, k in counts.items() if k > 1] == []


def test_package_exports_the_modules_and_their_names():
    names = {name for m in MODULES for name in m.__all__}
    assert set(qmspace.__all__) == names | {m.__name__.split(".")[-1]
                                            for m in MODULES}
    assert len(qmspace.__all__) == len(set(qmspace.__all__))


def test_a_name_imported_from_another_module_still_resolves():
    assert curvature.FunctionalReport is core.FunctionalReport
    assert "FunctionalReport" not in curvature.__all__


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from qmspace import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(qmspace.__all__)


def test_dir_lists_every_public_name():
    assert set(qmspace.__all__) <= set(dir(qmspace))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qmspace.no_such_name


def test_cli_and_io_import_from_the_package():
    from qmspace import cli, io
    assert cli.main is sys.modules["qmspace.cli"].main
    assert io.load_space is sys.modules["qmspace.io"].load_space


def test_a_name_reads_the_modules_current_attribute(monkeypatch):
    def patched(problem):
        return 0.0, None
    monkeypatch.setattr(transport, "wasserstein", patched)
    assert qmspace.wasserstein is patched
    assert "wasserstein" not in vars(qmspace)
