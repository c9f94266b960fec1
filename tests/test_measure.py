import json
import math

import pytest

from kgbohm import (
    TALLY_KEYS,
    FourVector,
    Region,
    Selection,
    estimate_spacetime_fraction,
    grid_scan,
    sample_pair_space,
    wilson_interval,
    write_scan_csv,
)

BOX = Region(FourVector(-0.5, -0.5, -0.5, -0.5), FourVector(0.5, 0.5, 0.5, 0.5))

# Wilson 95% intervals pinned against an independent statistics library.
WILSON_ORACLE = {
    (3, 10): (0.10779126740630102, 0.6032218525388546),
    (0, 10): (0.0, 0.27753279986288926),
    (10, 10): (0.7224672001371109, 1.0),
    (157, 1000): (0.1357693269808853, 0.18085582934020553),
    (24420, 160000): (0.15087120807087231, 0.1543954718631302),
}


class TestWilsonInterval:
    @pytest.mark.parametrize("kn,expected", sorted(WILSON_ORACLE.items()))
    def test_matches_reference_implementation(self, kn, expected):
        lo, hi = wilson_interval(*kn)
        assert lo == pytest.approx(expected[0], rel=1e-12, abs=1e-15)
        assert hi == pytest.approx(expected[1], rel=1e-12)

    @pytest.mark.parametrize("k,n", [(0, 5), (5, 5), (1, 3), (499, 1000)])
    def test_contains_point_estimate_within_unit_interval(self, k, n):
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0
        assert lo < hi

    def test_extremes_touch_the_boundary(self):
        assert wilson_interval(0, 7)[0] == 0.0
        assert wilson_interval(7, 7)[1] == 1.0

    @pytest.mark.parametrize("k,n", [(-1, 10), (11, 10), (0, 0)])
    def test_rejects_bad_tallies(self, k, n):
        with pytest.raises(ValueError):
            wilson_interval(k, n)


class TestRegion:
    def test_to_dict(self):
        assert BOX.to_dict() == {
            "lo": [-0.5, -0.5, -0.5, -0.5],
            "hi": [0.5, 0.5, 0.5, 0.5],
        }

    def test_degenerate_axis_rejected(self):
        with pytest.raises(ValueError, match="axis 2"):
            Region(FourVector(0.0, 0.0, 1.0, 0.0), FourVector(1.0, 1.0, 1.0, 1.0))

    def test_inverted_axis_rejected(self):
        with pytest.raises(ValueError, match="axis 0"):
            Region(FourVector(2.0, 0.0, 0.0, 0.0), FourVector(1.0, 1.0, 1.0, 1.0))

    def test_nonfinite_corner_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Region(
                FourVector(0.0, 0.0, 0.0, 0.0),
                FourVector(math.inf, 1.0, 1.0, 1.0),
            )


def test_tally_keys_are_the_selection_verdicts():
    # the order is the key order of every tally and printed report
    assert TALLY_KEYS == tuple(s.value for s in Selection) == (
        "plus_timelike",
        "minus_timelike",
        "both_spacelike",
        "boundary",
        "orthogonal_degenerate",
        "node",
    )


class TestSpacetimeEstimate:
    @pytest.mark.parametrize("n", [1, 4097])
    def test_counts_conserve_samples(self, cx, n):
        est = estimate_spacetime_fraction(cx, BOX, n=n, seed=3)
        assert sum(est.counts.values()) == n
        assert est.n == n
        assert set(est.counts) == set(TALLY_KEYS)
        for k in TALLY_KEYS:
            assert est.fractions[k] == est.counts[k] / n
            assert est.wilson_95[k] == wilson_interval(est.counts[k], n)

    def test_same_seed_reproduces_exactly(self, cx):
        a = estimate_spacetime_fraction(cx, BOX, n=2000, seed=5)
        b = estimate_spacetime_fraction(cx, BOX, n=2000, seed=5)
        assert a.counts == b.counts

    def test_different_seeds_differ(self, cx):
        a = estimate_spacetime_fraction(cx, BOX, n=2000, seed=5)
        b = estimate_spacetime_fraction(cx, BOX, n=2000, seed=6)
        assert a.counts != b.counts

    def test_identically_zero_wave_is_all_node(self, null_field):
        est = estimate_spacetime_fraction(null_field, BOX, n=64, seed=0)
        assert est.counts["node"] == 64

    def test_everywhere_degenerate_wave_fills_one_bucket(self, degenerate_field):
        est = estimate_spacetime_fraction(degenerate_field, BOX, n=64, seed=0)
        assert est.counts["orthogonal_degenerate"] == 64

    def test_rejects_empty_request(self, cx):
        with pytest.raises(ValueError):
            estimate_spacetime_fraction(cx, BOX, n=0, seed=0)

    def test_to_dict_records_region(self, cx):
        est = estimate_spacetime_fraction(cx, BOX, n=100, seed=1)
        d = json.loads(json.dumps(est.to_dict()))
        assert d["region"] == BOX.to_dict()
        assert "sigma" not in d
        assert d["n"] == 100 and d["seed"] == 1
        assert sum(d["counts"].values()) == 100


class TestPairSpaceEstimate:
    def test_counts_conserve_samples_and_node_is_empty(self):
        est = sample_pair_space(n=5000, seed=1)
        assert sum(est.counts.values()) == 5000
        assert est.counts["node"] == 0
        assert est.counts["both_spacelike"] > 0
        assert est.counts["plus_timelike"] + est.counts["minus_timelike"] > 0

    def test_scale_invariance_is_exact_for_power_of_two_sigma(self):
        # verdicts are homogeneous of degree zero and doubling every float
        # is exact, so the tallies agree bit for bit
        a = sample_pair_space(n=4097, seed=9, sigma=1.0)
        b = sample_pair_space(n=4097, seed=9, sigma=2.0)
        assert a.counts == b.counts
        assert b.sigma == 2.0

    def test_both_spacelike_is_exactly_one_half(self):
        # Minkowski orthogonal complement swaps spacelike and Lorentzian
        # 2-planes and preserves every O(4)-invariant pair measure, so
        # P(both_spacelike) = 1/2 exactly for the iid normal draw
        n = 2**20
        est = sample_pair_space(n=n, seed=1)
        se = 0.5 / math.sqrt(n)
        assert abs(est.fractions["both_spacelike"] - 0.5) <= 4.0 * se

    def test_to_dict_records_sigma(self):
        d = json.loads(json.dumps(sample_pair_space(n=100, seed=0, sigma=3.0).to_dict()))
        assert d["sigma"] == 3.0
        assert "region" not in d

    @pytest.mark.parametrize("kwargs", [dict(n=0, seed=0), dict(n=10, seed=0, sigma=0.0)])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            sample_pair_space(**kwargs)


class TestGridScan:
    def test_single_cell_sits_at_the_low_corner(self, cx):
        region = Region(FourVector(0.0, 0.0, 0.0, 0.0), FourVector(0.02, 0.02, 0.02, 0.02))
        scan = grid_scan(cx, region, (1, 1, 1, 1))
        assert len(scan.cells) == 1
        cell = scan.cells[0]
        assert (cell.x0, cell.x1, cell.x2, cell.x3) == (0.0, 0.0, 0.0, 0.0)
        assert cell.selection == "both_spacelike"
        assert math.isfinite(cell.theta)
        assert cell.w_plus_sq < 0.0 and cell.w_minus_sq < 0.0

    def test_even_resolution_on_symmetric_box_hits_the_center(self, cx):
        scan = grid_scan(cx, BOX, (4, 4, 4, 4))
        assert len(scan.cells) == 256
        center = scan.cells[2 * 64 + 2 * 16 + 2 * 4 + 2]
        assert (center.x0, center.x1, center.x2, center.x3) == (0.0, 0.0, 0.0, 0.0)
        assert center.selection == "both_spacelike"
        # row-major with x0 slowest: the first 64 cells share x0 = -0.5
        assert all(c.x0 == -0.5 for c in scan.cells[:64])
        axis = sorted({c.x3 for c in scan.cells})
        assert axis == [-0.5, -0.25, 0.0, 0.25]

    def test_doubling_resolution_preserves_shared_points(self, cx):
        coarse = grid_scan(cx, BOX, (4, 4, 4, 4))
        fine = grid_scan(cx, BOX, (8, 8, 8, 8))
        verdict_at = {
            (c.x0, c.x1, c.x2, c.x3): c.selection for c in fine.cells
        }
        for c in coarse.cells:
            assert verdict_at[(c.x0, c.x1, c.x2, c.x3)] == c.selection

    def test_degenerate_cells_carry_nan_numerics(self, degenerate_field):
        region = Region(FourVector(0.0, 0.0, 0.0, 0.0), FourVector(1.0, 1.0, 1.0, 1.0))
        scan = grid_scan(degenerate_field, region, (2, 2, 2, 2))
        for cell in scan.cells:
            assert cell.selection == "orthogonal_degenerate"
            assert math.isnan(cell.theta)
            assert math.isnan(cell.w_plus_sq) and math.isnan(cell.w_minus_sq)

    def test_node_cells(self, null_field):
        region = Region(FourVector(0.0, 0.0, 0.0, 0.0), FourVector(1.0, 1.0, 1.0, 1.0))
        scan = grid_scan(null_field, region, (2, 1, 1, 1))
        assert [c.selection for c in scan.cells] == ["node", "node"]
        assert all(math.isnan(c.theta) for c in scan.cells)

    def test_counts_and_fraction(self, cx):
        scan = grid_scan(cx, BOX, (4, 4, 4, 4))
        counts = scan.counts()
        assert sum(counts.values()) == 256
        assert scan.fraction("both_spacelike") == counts["both_spacelike"] / 256
        with pytest.raises(KeyError):
            scan.fraction("no_such_bucket")

    @pytest.mark.parametrize("resolution", [(0, 1, 1, 1), (1, 1, 1), (1, 1, 1, -2)])
    def test_rejects_bad_resolution(self, cx, resolution):
        with pytest.raises(ValueError):
            grid_scan(cx, BOX, resolution)

    def test_csv_layout_and_roundtrip(self, cx, tmp_path):
        scan = grid_scan(cx, BOX, (2, 2, 2, 2))
        out = tmp_path / "scan.csv"
        write_scan_csv(scan, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "x0,x1,x2,x3,selection,theta,w_plus_sq,w_minus_sq"
        assert len(lines) == 1 + len(scan.cells)
        row = lines[1].split(",")
        assert len(row) == 8
        assert [float(v) for v in row[:4]] == [
            scan.cells[0].x0,
            scan.cells[0].x1,
            scan.cells[0].x2,
            scan.cells[0].x3,
        ]
        assert row[4] == scan.cells[0].selection
        assert float(row[5]) == scan.cells[0].theta
