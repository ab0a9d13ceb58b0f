"""Exception types shared across the library, and the checks that turn a
malformed config document into :class:`InvalidInputError`."""

from contextlib import contextmanager
from numbers import Integral, Real


class InvalidInputError(ValueError):
    """An argument violates an operation's contract."""


class UnsupportedSizeError(InvalidInputError):
    """An exhaustive-search operation was asked to exceed its size bound."""


class PreconditionError(InvalidInputError):
    """A verification routine's hypothesis fails.

    Distinct from a failed conclusion: raising this means the check was
    never applicable, not that it was applied and refuted.
    """


@contextmanager
def decoding(what: str):
    """Report a missing key, a wrong type, a malformed value or an invalid
    input met while decoding ``what`` as :class:`InvalidInputError` naming it."""
    try:
        yield
    except InvalidInputError as exc:
        if str(exc).startswith(f"{what}:"):
            raise
        raise type(exc)(f"{what}: {exc}") from exc
    except KeyError as exc:
        raise InvalidInputError(f"{what}: missing key {exc.args[0]!r}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what}: {exc}") from exc


def known_keys(d, keys, what: str) -> None:
    """Reject a document ``d`` with a key outside ``keys`` as
    :class:`InvalidInputError`."""
    unknown = sorted(set(d.keys()) - set(keys))
    if unknown:
        raise InvalidInputError(f"{what}: unknown keys {unknown}")


def integer(value) -> int:
    """``value`` as an int; booleans, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def number(value) -> float:
    """``value`` as a float; booleans and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)
