"""
Marked spatio-temporal point processes: simulation, adaptive Voronoi
intensity estimation, marked inhomogeneous K-functions with minus-sampling
edge correction, and Monte-Carlo tests of marking structure.

The package exports exactly the names in its modules' ``__all__`` lists.
"""

from .geometry import *  # noqa: F401,F403
from .pattern import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .intensity import *  # noqa: F401,F403
from .second_order import *  # noqa: F401,F403
from .inference import *  # noqa: F401,F403

__version__ = "0.1.0"
