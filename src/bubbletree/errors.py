"""Shared exception types, the one positive-and-finite scale check, and the
one table from errors to exit codes.

``exit_code`` is that table, read by every ``bubbletree`` command and by
each pipeline stage: ``VerificationError`` means a well-formed instance
failed a checked property (2), ``ResourceCapError`` means a deliberate size
cap was exceeded (4), and anything else, ``ValueError`` subclasses among
them, means malformed input (3).
"""

import math


class BubbletreeError(Exception):
    """Base class for package errors."""


class InputError(BubbletreeError, ValueError):
    """Malformed or inconsistent input data."""


class VerificationError(BubbletreeError):
    """A verification pass rejected the instance, with a reason."""


class ResourceCapError(BubbletreeError):
    """A computation was refused because it exceeds a documented cap."""


def require_scale(name: str, value: float) -> None:
    """InputError unless value is positive and finite."""
    # written so that NaN and inf fail it too
    if not 0.0 < value < math.inf:
        raise InputError(f"{name} must be positive and finite, got {value}")


def exit_code(exc: BaseException) -> int:
    """2 for a verification failure, 4 for a resource cap, 3 otherwise."""
    if isinstance(exc, VerificationError):
        return 2
    if isinstance(exc, ResourceCapError):
        return 4
    return 3
