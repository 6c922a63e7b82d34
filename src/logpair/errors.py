"""Exception hierarchy shared by all modules.

InputError covers everything a caller can fix (bad dimensions, malformed
JSON, parameters outside the supported range).  InternalError marks a
violated internal invariant; the CLI maps the former to exit code 1 and
the latter to exit code 2.
"""


class LogPairError(Exception):
    pass


class InputError(LogPairError):
    """The caller supplied something we cannot work with."""


class NotDecomposableError(InputError):
    """No decomposition exists over the given candidate set."""


class NoPencilError(InputError):
    """The residual adjoint class is not a multiple of a square-zero class."""


class InternalError(LogPairError):
    """An internal consistency check failed."""



# an error message shows a number of up to this many digits as it is and
# a longer one as its digit count: `str` refuses an int of more than
# 4,300 digits, and a message of thousands of digits is unreadable anyway
MESSAGE_DIGITS = 100


def number_text(v) -> str:
    """An int or Fraction as an error message shows it: "p" or "p/q",
    each part past MESSAGE_DIGITS digits written "<N digits>", with N
    worked out from the bit length rather than by `str`."""
    if v.denominator != 1:
        return f"{number_text(v.numerator)}/{number_text(v.denominator)}"
    n = abs(v.numerator)
    if n < 10 ** MESSAGE_DIGITS:
        return str(v.numerator)
    # floor(log10 n) is est or est - 1, as 2**(bits - 1) <= n < 2**bits
    est = int(n.bit_length() * 0.30102999566398120)  # log10(2)
    return f"{'-' if v < 0 else ''}<{est + (n >= 10 ** est):,} digits>"
