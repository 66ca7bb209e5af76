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
declared once, in the module that defines it.
"""

from . import chart, conjugate, engine, estimation, scoring, simulation
from .chart import *
from .conjugate import *
from .engine import *
from .estimation import *
from .scoring import *
from .simulation import *

__version__ = "0.1.0"

__all__ = [name for module in (chart, conjugate, engine, estimation, scoring, simulation)
           for name in module.__all__]
