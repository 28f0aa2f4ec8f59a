import numpy as np
import pytest

from screenwave import (build_mesh, cantor_prefractal, dist_to_screen,
                        make_screen)
from screenwave.geometry import distances_to_screen


class TestMakeScreen:
    def test_unit_interval_diameter(self):
        s = make_screen(2, [(0.0, 1.0)])
        assert s.diameter == 1.0

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            make_screen(2, [(0.0, 1.0), (0.5, 2.0)])

    def test_unit_square_diameter(self):
        s = make_screen(3, [((0, 0), (1, 1))])
        assert s.diameter == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            make_screen(2, [])

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            make_screen(2, [(0.3, 0.3)])

    def test_two_component_diameter(self):
        s = make_screen(2, [(0.0, 0.25), (0.75, 1.0)])
        assert s.diameter == 1.0


class TestCantorPrefractal:
    def test_level0_is_base_interval(self):
        s = cantor_prefractal(2, 0, 1 / 3)
        assert s.n_boxes == 1
        assert s.lo[0, 0] == 0.0 and s.hi[0, 0] == 1.0

    def test_level1_middle_thirds(self):
        s = cantor_prefractal(2, 1, 1 / 3)
        got = sorted((lo[0], hi[0]) for lo, hi in s.boxes())
        assert got[0] == pytest.approx((0.0, 1 / 3))
        assert got[1] == pytest.approx((2 / 3, 1.0))

    def test_level2_four_intervals(self):
        s = cantor_prefractal(2, 2, 1 / 3)
        starts = sorted(lo[0] for lo, _ in s.boxes())
        widths = [hi[0] - lo[0] for lo, hi in s.boxes()]
        assert np.allclose(starts, [0.0, 2 / 9, 2 / 3, 8 / 9])
        assert np.allclose(widths, 1 / 9)

    @pytest.mark.parametrize("n,level", [(2, 3), (2, 5), (3, 2)])
    def test_volume_scaling(self, n, level):
        alpha = 0.4
        s = cantor_prefractal(n, level, alpha)
        expected = (2 * alpha) ** (level * (n - 1))
        assert s.volume() == pytest.approx(expected, rel=1e-12)

    def test_diameter_preserved(self):
        for lev in range(4):
            assert cantor_prefractal(2, lev, 1 / 3).diameter == pytest.approx(1.0)
            assert cantor_prefractal(3, lev, 1 / 3).diameter == pytest.approx(
                np.sqrt(2.0))

    def test_nesting(self):
        coarse = cantor_prefractal(2, 2, 1 / 3)
        fine = cantor_prefractal(2, 3, 1 / 3)
        for lo, hi in fine.boxes():
            inside = any(clo[0] - 1e-14 <= lo[0] and hi[0] <= chi[0] + 1e-14
                         for clo, chi in coarse.boxes())
            assert inside

    def test_level_cap(self):
        with pytest.raises(ValueError, match="level"):
            cantor_prefractal(2, 9, 1 / 3)

    def test_ratio_range(self):
        with pytest.raises(ValueError, match="ratio"):
            cantor_prefractal(2, 1, 0.5)


class TestDistToScreen:
    def test_directly_above(self):
        s = make_screen(2, [(0.0, 1.0)])
        assert dist_to_screen((0.5, 1.0), s) == pytest.approx(1.0)

    def test_in_plane_offset(self):
        s = make_screen(2, [(0.0, 1.0)])
        assert dist_to_screen((2.0, 0.0), s) == pytest.approx(1.0)

    def test_pythagoras(self):
        s = make_screen(2, [(0.0, 1.0)])
        assert dist_to_screen((2.0, 1.5), s) == pytest.approx(np.sqrt(1 + 2.25))

    def test_lipschitz_sampled(self, rng):
        s = cantor_prefractal(2, 2, 1 / 3)
        pts = rng.uniform(-2, 2, size=(40, 2))
        for i in range(len(pts) - 1):
            d1 = dist_to_screen(pts[i], s)
            d2 = dist_to_screen(pts[i + 1], s)
            assert abs(d1 - d2) <= np.linalg.norm(pts[i] - pts[i + 1]) + 1e-12

    def test_batched_rows_are_one_point_distances(self, rng):
        s = cantor_prefractal(3, 2, 1 / 3)
        pts = rng.uniform(-1, 2, size=(50, 3))
        pts[:10, 2] = 0.0                       # in-plane points, some on boxes
        got = distances_to_screen(pts, s)
        assert got.shape == (50,)
        assert np.array_equal(got, [dist_to_screen(p, s) for p in pts])

    @pytest.mark.parametrize("shape", [(3,), (4, 2), (2, 3, 3)])
    def test_batched_rejects_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="shape"):
            distances_to_screen(np.zeros(shape), cantor_prefractal(3, 1, 1 / 3))

    def test_one_point_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            dist_to_screen((0.5, 0.5, 1.0), make_screen(2, [(0.0, 1.0)]))


class TestBuildMesh:
    def test_p0_counts(self):
        s = make_screen(2, [(0.0, 1.0)])
        assert build_mesh(s, 0.25, "P0").n_dofs == 4

    def test_p1_interior_nodes(self):
        s = make_screen(2, [(0.0, 1.0)])
        assert build_mesh(s, 0.25, "P1").n_dofs == 3

    def test_square_single_interior_node(self):
        s = make_screen(3, [((0, 0), (1, 1))])
        assert build_mesh(s, 0.5, "P1").n_dofs == 1

    def test_non_divisible_h(self):
        s = make_screen(2, [(0.0, 1.0)])
        with pytest.raises(ValueError, match="divide"):
            build_mesh(s, 0.3, "P0")

    def test_p1_needs_two_elements(self):
        s = make_screen(2, [(0.0, 1.0)])
        with pytest.raises(ValueError, match="P1"):
            build_mesh(s, 1.0, "P1")

    def test_p0_partition_of_unity(self, rng):
        from screenwave.geometry import basis_value

        s = cantor_prefractal(2, 1, 1 / 3)
        mesh = build_mesh(s, 1 / 9, "P0")
        pts = rng.uniform(0, 1, size=(200, 1))
        total = sum(basis_value(mesh, j, pts) for j in range(mesh.n_dofs))
        inside = np.zeros(len(pts), dtype=bool)
        for lo, hi in s.boxes():
            inside |= (pts[:, 0] > lo[0] + 1e-9) & (pts[:, 0] < hi[0] - 1e-9)
        assert np.all(total[inside] >= 1.0)
        assert np.all(total[~inside & (total > 0)] <= 2.0)  # boundary doubling only

    def test_elements_stay_in_boxes(self):
        s = cantor_prefractal(3, 1, 1 / 3)
        mesh = build_mesh(s, 1 / 6, "P0")
        for e in range(mesh.n_elements):
            b = mesh.element_box[e]
            c = mesh.element_center[e]
            assert np.all(c > s.lo[b]) and np.all(c < s.hi[b])
