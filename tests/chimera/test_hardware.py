"""Tests for the device specifications."""

import pytest

from repro.chimera.hardware import DWAVE_2X, DWAVE_TWO, DWaveSpec
from repro.exceptions import TopologyError


class TestPaperSpecs:
    def test_dwave_2x_matches_paper(self):
        assert DWAVE_2X.total_qubits == 1152
        assert DWAVE_2X.functional_qubits == 1097
        assert DWAVE_2X.num_broken_qubits == 55
        assert DWAVE_2X.cell_rows == DWAVE_2X.cell_cols == 12

    def test_dwave_2x_timing_matches_paper(self):
        # 129 us anneal + 247 us read-out = 376 us per run.
        assert DWAVE_2X.time_per_read_us == pytest.approx(376.0)
        assert DWAVE_2X.time_per_read_ms == pytest.approx(0.376)
        assert DWAVE_2X.default_num_reads == 1000
        assert DWAVE_2X.default_num_gauges == 10

    def test_dwave_two_predecessor(self):
        assert DWAVE_TWO.total_qubits == 512
        assert DWAVE_TWO.functional_qubits == 509


class TestSpecValidation:
    def test_invalid_dimensions(self):
        with pytest.raises(TopologyError):
            DWaveSpec(name="bad", cell_rows=0, cell_cols=1)

    def test_invalid_timing(self):
        with pytest.raises(TopologyError):
            DWaveSpec(name="bad", cell_rows=1, cell_cols=1, anneal_time_us=0.0)

    def test_invalid_functional_count(self):
        with pytest.raises(TopologyError):
            DWaveSpec(name="bad", cell_rows=1, cell_cols=1, functional_qubits=100)

    def test_no_functional_count_means_no_defects(self):
        spec = DWaveSpec(name="perfect", cell_rows=2, cell_cols=2)
        assert spec.num_broken_qubits == 0


class TestBuildTopology:
    def test_perfect_topology(self):
        topo = DWAVE_2X.build_topology(perfect=True)
        assert topo.num_qubits == 1152

    def test_defective_topology_matches_functional_count(self):
        topo = DWAVE_2X.build_topology(seed=0)
        assert topo.num_qubits == 1097

    def test_defective_topology_deterministic(self):
        a = DWAVE_2X.build_topology(seed=5)
        b = DWAVE_2X.build_topology(seed=5)
        assert a.broken_qubits == b.broken_qubits

    def test_small_spec_topology(self, small_spec):
        topo = small_spec.build_topology()
        assert topo.rows == 4 and topo.cols == 4
        assert topo.num_qubits == 128

    def test_defect_free_topology_is_built_once_per_shape(self):
        from repro.service.qa_adapter import QuantumAnnealingSolver

        shared = DWAVE_2X.build_topology(perfect=True)
        assert DWAVE_2X.build_topology(perfect=True) is shared
        renamed = DWaveSpec(name="renamed", cell_rows=12, cell_cols=12)
        assert renamed.build_topology() is shared
        solver = QuantumAnnealingSolver()
        first, second = solver._build_pipeline(seed=1), solver._build_pipeline(seed=2)
        assert first.device.topology is second.device.topology is shared
        assert DWAVE_2X.build_topology(seed=5) is not DWAVE_2X.build_topology(seed=5)
