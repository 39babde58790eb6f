"""Tests for the paper's device topologies."""

import pytest

from repro.devices.library import (
    all_to_all,
    aspen,
    by_name,
    grid,
    heavy_hex,
    line,
    manhattan,
    montreal,
    sycamore,
    target_device,
)


class TestMontreal:
    def test_size(self):
        d = montreal()
        assert d.n_qubits == 27
        assert len(d.edges) == 28

    def test_heavy_hex_degrees(self):
        """Heavy-hex lattices have degree at most 3."""
        assert montreal().max_degree == 3

    def test_known_couplings(self):
        d = montreal()
        assert d.are_neighbors(0, 1)
        assert d.are_neighbors(25, 26)
        assert not d.are_neighbors(0, 26)


class TestSycamore:
    def test_size_54(self):
        d = sycamore()
        assert d.n_qubits == 54

    def test_grid_degree(self):
        assert sycamore().max_degree == 4

    def test_connected(self):
        assert sycamore().diameter > 0


class TestAspen:
    def test_two_octagons(self):
        d = aspen()
        assert d.n_qubits == 16
        assert len(d.edges) == 18  # 8 + 8 ring edges + 2 bridges

    def test_ring_structure(self):
        d = aspen()
        assert d.are_neighbors(0, 7)      # octagon A closes
        assert d.are_neighbors(8, 15)     # octagon B closes
        assert d.are_neighbors(1, 14)     # bridge
        assert d.are_neighbors(2, 13)     # bridge

    def test_max_degree_three(self):
        assert aspen().max_degree == 3


class TestManhattan:
    def test_size_65(self):
        d = manhattan()
        assert d.n_qubits == 65

    def test_heavy_hex_degree(self):
        assert manhattan().max_degree <= 3

    def test_connected(self):
        assert manhattan().diameter > 10


class TestGenerics:
    def test_grid_2x3_fig3(self):
        d = grid(2, 3)
        assert d.n_qubits == 6
        assert len(d.edges) == 7

    def test_line_edges(self):
        assert len(line(10).edges) == 9

    def test_all_to_all_diameter_one(self):
        assert all_to_all(8).diameter == 1

    def test_heavy_hex_generator(self):
        d = heavy_hex(3, 6)
        assert d.max_degree <= 3
        assert d.diameter > 0


class TestLookup:
    @pytest.mark.parametrize("name,size", [
        ("montreal", 27), ("sycamore", 54), ("aspen", 16), ("manhattan", 65),
    ])
    def test_by_name(self, name, size):
        assert by_name(name).n_qubits == size

    def test_unknown(self):
        with pytest.raises(ValueError):
            by_name("nonexistent")


class TestTargetDevice:
    @pytest.mark.parametrize("name", ["all-to-all", "ALL-TO-ALL",
                                      "All-To-All"])
    def test_all_to_all_any_case_sized_to_problem(self, name):
        device = target_device(name, 30)
        assert device.name == "all-to-all-30"
        assert device.n_qubits == 30

    def test_named_device(self):
        assert target_device("Aspen", 16).name == "aspen-16"

    def test_too_small_device_rejected(self):
        with pytest.raises(ValueError, match="^17 qubits exceed aspen-16$"):
            target_device("aspen", 17)

    def test_device_free_compiler_ignores_named_device(self):
        device = target_device("aspen", 30, requires_device=False)
        assert device.name == "all-to-all-30"

    @pytest.mark.parametrize("name, requires_device",
                             [("all-to-all", True), ("aspen", False)],
                             ids=["all-to-all", "device-free"])
    def test_sized_target_capped_at_largest_named_device(
            self, name, requires_device):
        """manhattan (65 qubits) bounds every sized target."""
        device = target_device(name, 65, requires_device)
        assert device.name == "all-to-all-65"
        with pytest.raises(ValueError,
                           match="^66 qubits exceed the 65-qubit cap"):
            target_device(name, 66, requires_device)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown device"):
            target_device("nonexistent", 4)
