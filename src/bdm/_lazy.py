"""numpy, loaded on first use.

Most of what bdm computes is scalar (Delta and its zeros, Green's function
values, m-functions), and every 2x2 value is ((a, b), (c, d)) of Python
complex numbers, with its algebra in ``traces``.  numpy is loaded only
where a caller asks for an array: ``BoundaryDataMap.matrix``,
``WTMatrix.matrix``, ``Block4.full()`` and ``Block4.from_full``; no CLI
command does.  numpy is most of the cost of starting a bdm process.  The
modules that use it import ``np`` from here: a module object that runs
numpy's own import at its first attribute access (the standard library's
``importlib.util.LazyLoader`` recipe).  numpy is still located when bdm is
imported, so a missing numpy fails ``import bdm`` at once.
"""

import importlib.util
import sys


def _lazy_module(name: str):
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_module("numpy")
