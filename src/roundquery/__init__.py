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
    TruthRecord,
    gen_fig2_bal_instance,
    gen_fig3_overlap_instance,
    gen_random,
    make_instance,
    parse_instance_record,
    serialize_instance,
    truth_record,
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
    MinimumAdditiveLbAdversary,
    MinimumWlbAdversary,
    OracleError,
    SelectionFullLbAdversary,
    SelectionValueLbAdversary,
    SortingPairAdversary,
    ValueOracle,
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
    canonical_opt,
    extract_certificate,
    instance_solved,
    minimum_solved,
    opt1_minimum,
    opt1_selection_full,
    opt1_selection_value,
    opt1_sorting,
    query_set_feasible,
    selection_solved,
    selection_value_pinned,
    sorting_solved,
    verify_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
