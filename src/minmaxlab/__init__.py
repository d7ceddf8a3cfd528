"""Hard-instance construction and verification lab for min-max optimization.

The pipeline composes query-counted oracles: three-valued oracle circuits
(NOR / PURIFY / ORACLE gates) compile into smooth self-maps of the cube,
which replicate into nonconvex-nonconcave min-max objectives whose
stationary points decode back to circuit assignments or fixed-point
witnesses.  Grid labelings bridge continuous fixed points and the
discrete side.  Every black-box call is charged to a query ledger.
"""

from .boolinterp import (
    BoolOracle,
    active_vertex,
    dense_sum_eval,
    interp_eval,
    interp_grad,
    interp_hess_entry,
)
from .brouwer import (
    BrouwerMap,
    build_brouwer,
    cycle_cut_solve,
    damped_iteration,
    decode_brouwer,
    eval_F,
    eval_JF,
    find_fixed_point,
)
from .circuit import (
    BOT,
    Assignment,
    CircuitInstance,
    Gate,
    build_constant_gadget,
    build_oracle_from_labeling,
    check_assignment,
    circuit_from_json,
    circuit_to_json,
    nor,
    oracle_gate,
    purify,
    validate_instance,
)
from .config import DEFAULTS, NumericConfig
from .gda import (
    DichotomyResult,
    GdaInstance,
    GdaParams,
    build_gda_instance,
    decode_gda,
    derive_parameters,
    dichotomy_extract,
    endpoint_gap,
    eval_f,
    eval_grad_f,
    stationarity_gap,
)
from .harness import (
    BilinearToy,
    FdReport,
    GdaObjective,
    SolverRun,
    fd_check,
    grid_search_stationary,
    run_extragradient,
    run_pgda,
)
from .ledger import QueryLedger
from .smoothstep import StepSpec, energy_step, step_d1, step_d2, step_eval
from .sperner import (
    SpernerInstance,
    SpernerSolution,
    brouwer_to_labeling,
    decode_sperner_to_fixed_point,
    find_sperner_solution_exhaustive,
    get_test_map,
    verify_sperner_solution,
)

__version__ = "0.1.0"
