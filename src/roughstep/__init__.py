"""Rough-driver integration toolkit.

Pathwise one-step schemes for differential equations driven by irregular
signals, the second-order (area) data they need, a gallery of drivers with
prescribed regularity or blow-up behavior, and the estimators that check the
advertised properties numerically.  Every name a submodule lists in its
``__all__`` is re-exported here.
"""

from . import analysis, core, drivers, schemes
from .core import *
from .drivers import *
from .schemes import *
from .analysis import *

__version__ = "0.1.0"

__all__ = ["__version__", *core.__all__, *drivers.__all__, *schemes.__all__, *analysis.__all__]
