"""Bures fidelity and trace distance for qubit states, three independent ways.

States live on the Bloch ball.  The fidelity between two of them can be
computed from the matrix definition, from a closed form in the Bloch
vectors, or through hyperbolic geometry: rapidities add by the Einstein
velocity law and the fidelity is a ratio of hyperbolic cosines of the
resulting triangle's sides.  This package implements all three routes,
exposes the triangle itself as plottable Poincare-disk data, and ships a
deterministic Monte Carlo harness that verifies the routes agree.

Each module's ``__all__`` is the one list of its public names; this
package re-exports all four.
"""

from . import hyperbolic, measures, qubit, verify
from .hyperbolic import *  # noqa: F403
from .measures import *  # noqa: F403
from .qubit import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = qubit.__all__ + measures.__all__ + hyperbolic.__all__ + verify.__all__
