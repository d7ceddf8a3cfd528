"""Shared numeric configuration: one place for tolerances and defaults."""

from __future__ import annotations

from dataclasses import dataclass


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
