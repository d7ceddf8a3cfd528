"""Shared numeric configuration: one place for tolerances and defaults,
and the one whole-number rule every counted entry point applies."""

from __future__ import annotations

from dataclasses import dataclass


def whole_number(value, what: str, minimum: int = 0) -> int:
    """value as an int; it must be a whole number >= minimum (an int, a
    numpy int, a bool or an integral float), else ValueError naming `what`."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):  # int() of a non-number, a NaN or an infinity
        n = None
    if n is None or n != value or n < minimum:
        raise ValueError(f"{what} must be a whole number >= {minimum}, got {value!r}")
    return n


@dataclass(frozen=True)
class NumericConfig:
    """Tolerances and defaults shared across modules.

    All arithmetic is binary64; these constants pin the finite-difference
    step and relative tolerance of the gradient audit, plus the default
    fixed-point / stationarity targets.
    """

    # grad-check / fd_check central differences
    grad_fd_step: float = 1e-5
    grad_fd_rel_tol: float = 1e-4
    # fixed-point residual target for the smooth map construction
    brouwer_eps: float = 1.0 / 12.0
    # default inner approximation error for min-max instances
    default_rho: float = 1.0 / 12.0
    # budget gates
    dense_sum_max_arity: int = 10
    truth_table_max_arity: int = 20
    exhaustive_grid_budget: int = 10**6
    grid_search_budget: int = 10**7


DEFAULTS = NumericConfig()
