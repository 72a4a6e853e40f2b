"""The package's export surface: every ``__all__`` name of every module resolves."""

import importlib
import pkgutil

import repro


def test_every_all_name_resolves():
    names = ["repro"] + [info.name for info in
                         pkgutil.walk_packages(repro.__path__, "repro.")]
    dangling = {}
    for name in names:
        module = importlib.import_module(name)
        missing = [attr for attr in getattr(module, "__all__", ())
                   if not hasattr(module, attr)]
        if missing:
            dangling[name] = missing
    assert len(names) > 50
    assert dangling == {}
