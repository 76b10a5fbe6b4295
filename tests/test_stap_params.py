"""Tests for STAP parameter validation and derived dimensions."""

import numpy as np
import pytest

from repro.core.pipeline import (
    NodeAssignment,
    build_embedded_pipeline,
    build_separate_io_pipeline,
)
from repro.core.plan import PipelinePlan
from repro.errors import ConfigurationError
from repro.stap.costs import STAPCosts
from repro.stap.params import STAPParams, tiny_params, training_gate_indices
from repro.stap.weights import training_gates


class TestValidation:
    def test_defaults_valid(self):
        p = STAPParams()
        assert p.n_channels == 16 and p.n_pulses == 128

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_channels": 1},
            {"n_pulses": 2},
            {"n_ranges": 4},
            {"n_hard_bins": 0},
            {"n_hard_bins": 128},
            {"n_beams": 0},
            {"n_training": 8},          # < 2*J
            {"n_training": 2000},       # > n_ranges
            {"pulse_len": 0},
            {"pulse_len": 5000},
            {"cfar_window": 0},
            {"cfar_guard": -1},
            {"pfa": 0.0},
            {"pfa": 1.0},
            {"dtype": np.dtype(np.float32)},
            {"dtype": "float32"},
            {"dtype": "bogus"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            STAPParams(**kwargs)


class TestDerived:
    def test_bin_partition_is_complete_and_disjoint(self):
        p = STAPParams()
        hard, easy = set(p.hard_bins), set(p.easy_bins)
        assert hard | easy == set(range(p.n_pulses))
        assert not (hard & easy)
        assert len(p.hard_bins) == p.n_hard_bins
        assert len(p.easy_bins) == p.n_easy_bins

    def test_hard_bins_centred_on_dc(self):
        p = STAPParams(n_hard_bins=4)
        # Two on each side of DC, wrapping: {126, 127, 0, 1}.
        assert set(p.hard_bins) == {126, 127, 0, 1}

    def test_bin_lists_sorted(self):
        p = STAPParams()
        assert list(p.hard_bins) == sorted(p.hard_bins)
        assert list(p.easy_bins) == sorted(p.easy_bins)

    def test_dof(self):
        p = STAPParams()
        assert p.easy_dof == 16 and p.hard_dof == 32

    def test_cube_size_is_16mib(self):
        p = STAPParams()
        assert p.cube_nbytes == 16 * 1024 * 1024

    def test_beam_angles_count_and_symmetry(self):
        p = STAPParams()
        angles = p.beam_angles
        assert len(angles) == p.n_beams
        assert np.allclose(np.sin(angles), -np.sin(angles[::-1]))

    def test_scaled_shrinks_ranges(self):
        p = STAPParams()
        q = p.scaled(0.25)
        assert q.n_ranges == 256
        assert q.n_training <= q.n_ranges
        assert q.n_channels == p.n_channels

    def test_scaled_keeps_validity(self):
        STAPParams().scaled(0.01)  # must not raise

    def test_frozen(self):
        p = STAPParams()
        with pytest.raises(Exception):
            p.n_channels = 3  # type: ignore[misc]


class TestDtype:
    """``dtype`` is held as a name, whatever form it was given in."""

    @pytest.mark.parametrize(
        "given", ["complex64", np.complex64, np.dtype(np.complex64), "c8", "<c8"]
    )
    def test_forms_of_complex64_are_one_params(self, given):
        p, q = STAPParams(dtype=given), STAPParams()
        assert p.dtype == "complex64"
        assert p == q and hash(p) == hash(q)
        assert len({p, q}) == 1

    def test_complex128(self):
        p = STAPParams(dtype=np.complex128)
        assert p.dtype == "complex128" and p.itemsize == 16
        assert p.cube_nbytes == 2 * STAPParams().cube_nbytes

    def test_costs_accept_a_named_dtype(self):
        costs = STAPCosts(STAPParams(dtype="complex64"))
        assert costs.itemsize == 8
        assert costs.doppler_easy_bytes() == STAPCosts(STAPParams()).doppler_easy_bytes()
        assert costs.cube_bytes() == 16 * 1024 * 1024

    def test_itemsize_matches_numpy(self):
        for name in ("complex64", "complex128", "clongdouble"):
            p = STAPParams(dtype=name)
            assert p.itemsize == np.dtype(name).itemsize == np.dtype(p.dtype).itemsize


def _numpy_gates(n_ranges, n_training):
    return np.linspace(0, n_ranges - 1, n_training).astype(np.intp)


class TestTrainingGates:
    """The pure-Python gates equal numpy's linspace-and-truncate."""

    @pytest.mark.parametrize(
        "n_ranges", [1, 2, 3, 7, 8, 100, 128, 256, 1000, 1023, 1024, 4096, 9973]
    )
    def test_equal_to_numpy(self, n_ranges):
        sizes = {1, 2, 3, n_ranges - 1, n_ranges}
        sizes |= set(range(1, n_ranges + 1, max(1, n_ranges // 150)))
        for k in sorted(s for s in sizes if 1 <= s <= n_ranges):
            gates = training_gate_indices(n_ranges, k)
            assert isinstance(gates, tuple)
            assert list(gates) == _numpy_gates(n_ranges, k).tolist(), (n_ranges, k)

    @pytest.mark.parametrize("n_ranges,k", [(8, 0), (8, 9), (1, 2), (5, -1)])
    def test_invalid_bounds_rejected(self, n_ranges, k):
        with pytest.raises(ConfigurationError):
            training_gate_indices(n_ranges, k)
        with pytest.raises(ConfigurationError):
            training_gates(n_ranges, k)

    def test_weights_training_gates_is_an_intp_array(self):
        for n_ranges, k in [(1024, 96), (128, 32), (256, 1), (64, 64)]:
            gates = training_gates(n_ranges, k)
            assert gates.dtype == np.intp
            np.testing.assert_array_equal(gates, _numpy_gates(n_ranges, k))

    @pytest.mark.parametrize("params", [STAPParams(), tiny_params()], ids=["default", "tiny"])
    @pytest.mark.parametrize("build", [build_embedded_pipeline, build_separate_io_pipeline])
    def test_plan_gate_cols_equal_nonzero(self, params, build):
        a = NodeAssignment.balanced(params, 28, io_nodes=4)
        plan = PipelinePlan(build(a), params)
        gates = _numpy_gates(params.n_ranges, params.n_training)
        assert plan.train_gates == tuple(gates.tolist())
        for dop in range(plan.ranges_doppler.parts):
            rlo, rhi = plan.ranges_doppler.bounds(dop)
            old = np.nonzero((gates >= rlo) & (gates < rhi))[0]
            assert plan.train_gate_cols(rlo, rhi) == old.tolist()
