"""Experiment harness reproducing the paper's evaluation (Section 7).

The harness generates the four test-case classes (2-5 plans per query
with the maximal number of queries that fits on the device), runs the
quantum-annealing pipeline and the classical baselines under identical
conditions, and renders the same exhibits the paper reports: Table 1
(time to optimality of LIN-MQO), Figures 4 and 5 (cost versus
optimisation time), Figure 6 (speedup versus qubits per variable) and
Figure 7 (representable problem dimensions per qubit budget).
"""

from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.workloads.embedded import (
    EmbeddedTestCase,
    TestCaseClass,
    generate_embedded_testcase,
    paper_test_classes,
)
from repro.experiments.metrics import reference_cost, scaled_cost, speedup_over_classical
from repro.experiments.runner import ExperimentRunner, InstanceResult, QuantumAnnealingFrontend
from repro.experiments.figures import (
    figure4_table,
    figure5_table,
    figure6_table,
    figure7_table,
    quality_vs_time_table,
)
from repro.experiments.tables import table1_rows, table1_table

__all__ = [
    "ExperimentProfile",
    "get_profile",
    "EmbeddedTestCase",
    "generate_embedded_testcase",
    "TestCaseClass",
    "paper_test_classes",
    "reference_cost",
    "scaled_cost",
    "speedup_over_classical",
    "ExperimentRunner",
    "InstanceResult",
    "QuantumAnnealingFrontend",
    "figure4_table",
    "figure5_table",
    "figure6_table",
    "figure7_table",
    "quality_vs_time_table",
    "table1_rows",
    "table1_table",
]
