"""Multiple-query-optimization (MQO) problem model and workload generators.

The MQO formalism follows Section 3 of the paper: a problem is a set of
queries, each with a set of alternative plans; each plan has an execution
cost; pairs of plans (for *different* queries) may share intermediate
results, yielding a cost saving when both are executed.  A solution
selects exactly one plan per query and its cost is
``C(Pe) = sum(c_p) - sum(s_{p1,p2})`` over selected plans/pairs.
"""

from repro.mqo.arrays import ProblemArrays, build_problem_arrays
from repro.mqo.problem import MQOProblem, MQOSolution, Plan, Query
from repro.mqo.generator import (
    MQOGeneratorConfig,
    generate_chimera_native_problem,
    generate_clustered_problem,
    generate_paper_testcase,
    generate_random_problem,
)
from repro.mqo.cost_model import (
    CatalogStatistics,
    RelationalCostModel,
    TableStats,
    synthesize_plan_costs,
)
from repro.mqo.clustering import cluster_queries
from repro.mqo.serialization import problem_from_dict, problem_to_dict, solution_from_dict, solution_to_dict

__all__ = [
    "Plan",
    "Query",
    "MQOProblem",
    "MQOSolution",
    "ProblemArrays",
    "build_problem_arrays",
    "MQOGeneratorConfig",
    "generate_random_problem",
    "generate_clustered_problem",
    "generate_chimera_native_problem",
    "generate_paper_testcase",
    "CatalogStatistics",
    "RelationalCostModel",
    "TableStats",
    "synthesize_plan_costs",
    "cluster_queries",
    "problem_to_dict",
    "problem_from_dict",
    "solution_to_dict",
    "solution_from_dict",
]
