"""Low-rank CP tensor completion with the l1 scaling-vector penalty tuned
per iteration by a flexible Golub-Kahan hybrid method with weighted GCV.

The package republishes the ``__all__`` of each numerical module, so each
public name is listed once, in the module that defines it.  ``fileio`` and
``cli`` are imported as submodules.
"""

from .completion import *
from .cp_model import *
from .exceptions import *
from .factor_updates import *
from .hybrid_l1 import *
from .mor import *
from .tensor_ops import *

__version__ = "0.1.0"
