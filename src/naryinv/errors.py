"""Exceptions, the size bound and the validators of the package."""

from typing import Iterable

#: the one bound on the states a query holds: series cells, character-table
#: cells, and the n! orderings the orbit walk joins
MAX_TERMS = 5_000_000


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured size bound."""


class TruncationError(ValueError):
    """A series coefficient beyond the truncation order was requested."""


class InternalError(RuntimeError):
    """A result broke an invariant that holds for every valid input.

    Raised instead of ``assert`` so the check survives ``python -O``; it
    means the code, not the input, is at fault.
    """


def check_params(
    n: int,
    d: int | None = None,
    k: int | None = None,
    max_terms: int | None = None,
) -> None:
    """Reject an out-of-range rank, form degree, monomial degree or state
    limit with a :class:`ValueError`; ``None`` skips that parameter."""
    if n < 2:
        raise ValueError(f"rank parameter n must be >= 2, got {n}")
    if d is not None and d < 1:
        raise ValueError(f"form degree d must be >= 1, got {d}")
    if k is not None and k < 0:
        raise ValueError(f"monomial degree k must be >= 0, got {k}")
    if max_terms is not None and max_terms < 1:
        raise ValueError(f"state limit must be >= 1, got {max_terms}")


def check_weight(n: int, weight: Iterable[int], name: str = "weight") -> tuple[int, ...]:
    """Validate and normalise a weight of rank ``n`` to a plain tuple."""
    check_params(n)
    w = tuple(weight)
    if len(w) != n - 1:
        raise ValueError(f"{name} must have length n - 1 = {n - 1}, got {len(w)}")
    for pos, x in enumerate(w, start=1):
        if not isinstance(x, int):
            raise ValueError(f"{name} position {pos}: {x!r} is not an integer")
    return w


def check_dominant(n: int, highest: Iterable[int]) -> tuple[int, ...]:
    """:func:`check_weight` for a highest weight, which must be dominant."""
    w = check_weight(n, highest, "highest weight")
    if any(x < 0 for x in w):
        raise ValueError(f"highest weight must be dominant, got {w}")
    return w
