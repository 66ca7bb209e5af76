"""Prequential model selection for count data via homogeneous local scoring rules.

The package evaluates proper local scoring rules on the non-negative
integers that consume a predictive distribution only through its
successive-probability ratios, making them invariant to the arbitrary
constants of improper priors.  On top of the rule family it provides
conjugate Poisson-Gamma and Negative-Binomial-Beta predictives with
prequential and sufficient-statistic scoring, a sequential model-selection
engine, minimum-score estimation, and a seeded simulation harness with CSV
and SVG outputs.

The package exports each module's ``__all__``, so a public name is
declared once, in the module that defines it.  Importing the package runs
only this file: the first read of a public name imports the module that
declares it, with that module's own imports, and caches the name here.
The modules reach numpy through one lazy binding, which loads it with a
one-thread BLAS pool at the first array operation: importing the package,
or fitting a frequency table, does not load numpy.
"""


def _import_numpy_with_one_blas_thread():
    """numpy, imported with OPENBLAS_NUM_THREADS=1 unless the caller chose a pool.

    The package makes no BLAS call, yet OpenBLAS starts one worker per
    extra core as numpy loads, and each worker busy-waits about 0.1 s of
    CPU.  OpenBLAS reads the variable only while it loads, so it is
    removed again and child processes see the caller's environment.
    """
    import os
    import sys

    if "numpy" in sys.modules or {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                  "OMP_NUM_THREADS"} & os.environ.keys():
        import numpy
        return numpy
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
        return numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


class _Numpy:
    """numpy, loaded by _import_numpy_with_one_blas_thread at the first attribute read.

    The modules bind it as np.  Each name read is cached on the instance,
    so later reads are plain attribute lookups.
    """

    def __getattr__(self, name: str):
        value = getattr(_import_numpy_with_one_blas_thread(), name)
        setattr(self, name, value)
        return value


_np = _Numpy()

__version__ = "0.1.0"

# The library modules, each after those it imports.  A public name loads them in
# this order up to the one that declares it, so an engine name loads estimation
# too; an unknown name loads all six before it raises.
_MODULES = ("scoring", "estimation", "conjugate", "engine", "simulation", "chart")


def __getattr__(name: str):
    """A submodule, __all__, or a public name from the first module whose __all__ holds it.

    Each name is cached in the package namespace at its first read.  A
    name that starts with _, other than __all__, imports nothing: tools
    probe modules for names such as __wrapped__ and _repr_html_.
    """
    from importlib import import_module

    if name in _MODULES or name == "cli":  # cli: the one submodule outside the library namespace
        return import_module(f".{name}", __name__)
    modules = (import_module(f".{module}", __name__) for module in _MODULES)
    if name == "__all__":
        globals()[name] = [public for module in modules for public in module.__all__]
        return globals()[name]
    if not name.startswith("_"):
        for module in modules:
            if name in module.__all__:
                globals()[name] = getattr(module, name)
                return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    """This file's globals and every public and submodule name, so it loads every module."""
    return sorted({*globals(), *__getattr__("__all__"), *_MODULES})
