"""Anti-forcing numbers of graph powers: exact oracles, closed forms, harness."""

from .antiforcing import (
    AntiForcingResult,
    MatchingAnalysis,
    af_of_matching,
    af_subset_search,
    af_via_matchings,
    is_anti_forcing_set,
)
from .budget import Budget, BudgetExceededError
from .families import (
    FAMILIES,
    build,
    complete,
    cycle,
    friendship,
    ortho_square_chain,
    para_square_chain,
    path,
    triangular_chain,
)
from .formulas import (
    FormulaResult,
    af_cycle_power_bounds,
    af_friendship_power,
    af_ortho_power,
    af_ortho_power_closed_form,
    af_para_power,
    af_para_power_closed_form,
    af_path_power,
    af_triangular_chain_power,
    evaluate_formula,
)
from .graph import (
    Graph,
    edge,
    from_edgelist,
    from_json,
    loads,
    power,
    to_json,
)
from .harness import (
    InternalInvariantError,
    SweepSpec,
    check_closed_form_consistency,
    classify_status,
    default_sweep_spec,
    emit_report,
    run_edge_count_audit,
    run_sweep,
    solve_verified,
)
from .matching import (
    Matching,
    alternating_cycles,
    count_pms_excluding,
    enumerate_perfect_matchings,
    has_perfect_matching,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
