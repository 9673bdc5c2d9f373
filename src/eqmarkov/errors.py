"""Error taxonomy shared by the whole package.

Four failure classes, mapped one-to-one onto CLI exit codes:

  InvalidArgumentError  bad shapes, degrees, malformed sets       -> exit 2
  DomainError           point outside the set/arc being queried   -> exit 2
  NumericFailureError   a solver or certificate did not converge  -> exit 3
  ResourceLimitError    iteration/size limits exceeded            -> exit 4

A verification violation (a claimed-exact inequality fails on a concrete
polynomial) is not an exception: `cmd_verify` reports the witness and returns
exit code 5.
"""

from __future__ import annotations


class EqmarkovError(Exception):
    """Base class for everything raised deliberately by this package."""


class InvalidArgumentError(EqmarkovError, ValueError):
    pass


class DomainError(EqmarkovError, ValueError):
    pass


class NumericFailureError(EqmarkovError, ArithmeticError):
    pass


class ResourceLimitError(EqmarkovError, RuntimeError):
    pass
