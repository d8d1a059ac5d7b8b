"""Bures fidelity and trace distance for qubit states, three independent ways.

States live on the Bloch ball.  The fidelity between two of them can be
computed from the matrix definition, from a closed form in the Bloch
vectors, or through hyperbolic geometry: rapidities add by the Einstein
velocity law and the fidelity is a ratio of hyperbolic cosines of the
resulting triangle's sides.  This package implements all three routes,
exposes the triangle itself as plottable Poincare-disk data, and ships a
deterministic Monte Carlo harness that verifies the routes agree.

Each module's ``__all__`` is the one list of its public names; this
package re-exports all four.  The Pauli matrices are built on first
access, as in qubit, so importing the package loads no numpy.
"""

from . import hyperbolic, measures, qubit, verify
from .hyperbolic import *  # noqa: F403
from .measures import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = qubit.__all__ + measures.__all__ + hyperbolic.__all__ + verify.__all__

# qubit's names, as ``from .qubit import *`` would bind them, but for the
# Pauli matrices: that would build them.
globals().update({name: getattr(qubit, name) for name in qubit.__all__ if name not in qubit._PAULI_NAMES})


def __getattr__(name: str):
    """The Pauli matrices, qubit's own objects, built on first access (PEP 562)."""
    if name in qubit._PAULI_NAMES:
        return getattr(qubit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
