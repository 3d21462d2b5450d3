"""scipy's compiled extension modules, each loaded from its file without the package that holds it.

Importing a submodule runs its package first, and ``scipy.linalg``,
``scipy.optimize`` and ``scipy.signal`` load some 330, 574 and 786 modules
(about 29, 49 and 76 MB of resident memory) that chemowave never calls.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
import threading
from pathlib import Path
from types import ModuleType

_lock = threading.Lock()


def scipy_extension(name: str) -> ModuleType:
    """The compiled module ``name`` (such as ``"scipy.optimize._zeros"``), loaded from its file.

    scipy's directory comes from ``importlib.util.find_spec``, which does not
    import ``scipy``.  A module already in ``sys.modules`` is reused, and a
    later import of its package finds and reuses this one: the package's own
    ``from . import _zeros`` reads ``sys.modules``.  Raises ``ImportError``
    when scipy is missing or has no such extension file.
    """
    with _lock:
        module = sys.modules.get(name)
        if module is None:
            scipy = importlib.util.find_spec("scipy")
            if scipy is None:
                raise ImportError(f"{name} needs scipy, which is not installed", name=name)
            package, _, stem = name.partition(".")[2].rpartition(".")
            directory = Path(scipy.submodule_search_locations[0], *package.split("."))
            paths = [directory / f"{stem}{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
            path = next((p for p in paths if p.is_file()), None)
            if path is None:
                raise ImportError(f"no {name} extension in {directory}", name=name)
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
        return module
