"""Two-qubit Werner state toolkit.

Builds the Werner family W(q) = q |psi_minus><psi_minus| + (1-q)/4 I, decides
separability with the partial-transpose criterion, materializes two explicit
product-state decompositions for the separable range q <= 1/3, and validates
the induced local hidden variable model by seeded Monte Carlo.

Each library module's `__all__` is the one list of its public names; the
package re-exports them all, plus two constants of `wernerkit.tolerances`.
"""

__version__ = "0.1.0"

from . import decomposition, hiddenvar, linalg, separability, states
from .decomposition import *  # noqa: F403
from .hiddenvar import *  # noqa: F403
from .linalg import *  # noqa: F403
from .separability import *  # noqa: F403
from .states import *  # noqa: F403
from .tolerances import HERMITIAN_TOL, SEPARABLE_Q_MAX

__all__ = [
    "__version__", "HERMITIAN_TOL", "SEPARABLE_Q_MAX",
    *decomposition.__all__, *hiddenvar.__all__, *linalg.__all__,
    *separability.__all__, *states.__all__,
]
