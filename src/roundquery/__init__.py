"""Round-based query strategies for problems on uncertainty intervals.

The input of a problem is a set of intervals, each hiding an exact value
that a query reveals; up to k queries run in parallel per round.  This
package implements the sorting, minimum, and selection round strategies,
their adaptive lower-bound adversaries, exact offline optima, and a
harness that measures round counts against them.
"""

from .algorithms import (
    AlgorithmError,
    BalancedRounds,
    BudgetRounds,
    MinimumSingleRounds,
    SelectionFullRounds,
    SelectionValueRounds,
    SortingRounds,
    algorithm_names,
    build_dependency_graph,
    make_algorithm,
)
from .harness import (
    BatchReport,
    HarnessError,
    RoundTrace,
    RunReport,
    SweepEntry,
    SweepError,
    parse_bench_spec,
    resolve_source,
    run,
    run_batches,
    sweep,
    sweep_csv,
)
from .instances import (
    Instance,
    InstanceError,
    MINIMUM,
    ParseError,
    ProblemFamily,
    ProblemKind,
    RandomParams,
    Realization,
    SELECTION_FULL,
    SELECTION_VALUE,
    SORTING,
    gen_fig2_bal_instance,
    gen_fig3_overlap_instance,
    gen_random,
    make_instance,
    parse_instance,
    serialize_instance,
)
from .intervals import (
    CLOSED,
    EndpointKind,
    IntervalError,
    KnowledgeState,
    OPEN,
    UncertainInterval,
    dependent,
)
from .oracles import (
    FixedOracle,
    OracleError,
    ValueOracle,
    minimum_additive_lb_adversary,
    minimum_wlb_adversary,
    selection_full_lb_adversary,
    selection_value_lb_adversary,
    sorting_pair_adversary,
)
from .reductions import (
    BatchesToRounds,
    QueryAllBatch,
    RoundsToBatches,
    TwoBatchSorting,
)
from .solving import (
    BruteForceCapError,
    OptReport,
    SolutionCertificate,
    TruthRecord,
    canonical_opt,
    extract_certificate,
    instance_solved,
    minimum_scan,
    minimum_solved,
    opt1_bruteforce,
    opt1_minimum,
    opt1_selection_full,
    opt1_selection_value,
    opt1_sorting,
    query_set_feasible,
    selection_categories,
    selection_solved,
    selection_value_pinned,
    sorting_solved,
    truth_record,
    verify_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
