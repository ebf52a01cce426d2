"""Energy density attainable in one- and two-mode states of a massless field.

The package has five layers:

* :mod:`subvacuum.fock_oracle` — truncated number-basis states and exact
  ladder-operator moments, the independent reference everything else is
  checked against.
* :mod:`subvacuum.state_families` — closed-form moments (n, R, gamma) for the
  state families of interest; every one-mode closed form also carries the
  excess F = R - n, cancellation-free where the family is squeezed.
* :mod:`subvacuum.energy_density` — the density as a function of the moments,
  closed-form minima, and a numeric spacetime minimizer.
* :mod:`subvacuum.optimizer` — multi-start L-BFGS-B search for the largest
  F = R - n over a family's search view.
* :mod:`subvacuum.verification` — randomized closed-form-vs-oracle comparison
  and the fixed matrix-element identity checks.

:mod:`subvacuum.cli` exposes all of it as the ``subvacuum`` command.  The
package itself re-exports only the names of the README's library example;
everything else is imported from its module.
"""

from .energy_density import ModeGeometry, rho_min_br_closed, rho_min_two_mode_numeric
from .state_families import BarnettRadmore, barnett_radmore_moments, squeezed_vacuum_moments

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BarnettRadmore",
    "barnett_radmore_moments",
    "squeezed_vacuum_moments",
    "ModeGeometry",
    "rho_min_two_mode_numeric",
    "rho_min_br_closed",
]
