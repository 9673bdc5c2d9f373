"""Equilibrium measures of compact sets and the sharp constants they induce.

The package has three layers:

  * closed forms: band densities, endpoint limits, and every sharp
    Bernstein/Markov-type constant (`equilibrium`, `factors`);
  * independent brute force: semi-infinite LP and generalized eigenvalue
    oracles that recompute the same quantities from scratch (`extremal`);
  * plumbing: quadrature, Bessel zeros, LP, pencils (`numerics`), set
    geometry (`sets`), and a CLI (`cli`).

The two computational routes never share formulas, so agreement between them
is evidence, not tautology.
"""

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    DomainError,
    EqmarkovError,
    InvalidArgumentError,
    NumericFailureError,
    ResourceLimitError,
)

__all__ = [
    "DEFAULT_TOL",
    "Tolerances",
    "DomainError",
    "EqmarkovError",
    "InvalidArgumentError",
    "NumericFailureError",
    "ResourceLimitError",
]

__version__ = "0.1.0"
