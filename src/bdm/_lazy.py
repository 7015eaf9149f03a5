"""numpy, loaded on first use.

Most of what bdm computes is scalar (Delta and its zeros, Green's function
values, m-functions), and even a 2x2 map is four Python complex numbers
(``BoundaryDataMap.entries``, ``WTMatrix.entries``).  numpy is loaded only
where a caller asks for an array: a ``.matrix``, the array-valued
functions (``herglotz_imag``, ``measure_point_mass``, ``lambda_times_s``,
the lft block algebra, the oracles) and the verify suite.  numpy is most of
the cost of starting a bdm process.  The modules that use it import ``np``
from here: a module object that runs numpy's own import at its first
attribute access (the standard library's ``importlib.util.LazyLoader``
recipe).  numpy is still located when bdm is imported, so a missing numpy
fails ``import bdm`` at once.
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
