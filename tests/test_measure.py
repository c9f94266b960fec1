import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from kgbohm import (
    DEFAULT_TOLERANCES,
    TALLY_KEYS,
    FourVector,
    Region,
    Selection,
    Tolerances,
    classify_batch,
    estimate_spacetime_fraction,
    grid_scan,
    sample_pair_space,
    wilson_interval,
    write_scan_csv,
)
from kgbohm import measure
from kgbohm.measure import _axis_coords, _verdicts
from support import check_lattice, packet, random_superposition

BOX = Region(FourVector(-0.5, -0.5, -0.5, -0.5), FourVector(0.5, 0.5, 0.5, 0.5))

# n and seed that both estimators refuse
BAD_PARAMETERS = [dict(n=0, seed=0), dict(n=-1, seed=0), dict(n=10, seed=-1)]

# Three chunks of draws: two full ones of 4096 samples, seeded [seed, 0] and
# [seed, 1], and a partial last one of 3, seeded [seed, 2].
CHUNKS = (4096, 4096, 3)


def chunked_counts(seed, codes_of):
    """The tally of codes_of(rng, count) over CHUNKS, chunk i drawing from
    default_rng([seed, i])."""
    codes = np.concatenate(
        [codes_of(np.random.default_rng([seed, i]), c) for i, c in enumerate(CHUNKS)]
    )
    return dict(zip(TALLY_KEYS, np.bincount(codes, minlength=len(TALLY_KEYS)).tolist()))


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

    def test_width_that_overflows_rejected(self):
        with pytest.raises(ValueError, match="axis 3: width hi - lo overflows"):
            Region(
                FourVector(0.0, 0.0, 0.0, -1e308),
                FourVector(1.0, 1.0, 1.0, 1e308),
            )
        # a width just below the float maximum still makes a box
        Region(FourVector(-1e308, 0.0, 0.0, 0.0), FourVector(7e307, 1.0, 1.0, 1.0))


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

    def test_counts_are_those_of_the_uniform_draws(self, cx):
        lo = np.asarray(BOX.lo)
        span = np.asarray(BOX.hi) - lo

        def codes_of(rng, count):
            x = lo + rng.random((count, 4)) * span
            return _verdicts(cx, x, DEFAULT_TOLERANCES)[0]

        est = estimate_spacetime_fraction(cx, BOX, n=sum(CHUNKS), seed=7)
        assert est.counts == chunked_counts(7, codes_of)

    @pytest.mark.parametrize("kwargs", BAD_PARAMETERS)
    def test_rejects_bad_parameters(self, cx, kwargs):
        with pytest.raises(ValueError):
            estimate_spacetime_fraction(cx, BOX, **kwargs)

    def test_to_dict_records_region(self, cx):
        est = estimate_spacetime_fraction(cx, BOX, n=100, seed=1)
        d = json.loads(json.dumps(est.to_dict()))
        assert d["region"] == BOX.to_dict()
        assert d["n"] == 100 and d["seed"] == 1
        assert sum(d["counts"].values()) == 100


@pytest.mark.parametrize("n", [True, 2.5, "3"])
def test_sample_count_must_be_an_integer(cx, n):
    # True once gave "n": true in the JSON, and 2.5 a TypeError from range
    want = re.escape(f"n must be an integer >= 1, got {n!r}")
    with pytest.raises(ValueError, match=want):
        sample_pair_space(n, 0)
    with pytest.raises(ValueError, match=want):
        estimate_spacetime_fraction(cx, BOX, n, 0)


class TestPairSpaceEstimate:
    def test_counts_conserve_samples_and_node_is_empty(self):
        est = sample_pair_space(n=5000, seed=1)
        assert sum(est.counts.values()) == 5000
        assert est.counts["node"] == 0
        assert est.counts["both_spacelike"] > 0
        assert est.counts["plus_timelike"] + est.counts["minus_timelike"] > 0

    def test_both_spacelike_is_exactly_one_half(self):
        # Minkowski orthogonal complement swaps spacelike and Lorentzian
        # 2-planes and preserves every O(4)-invariant pair measure, so
        # P(both_spacelike) = 1/2 exactly for the iid normal draw
        n = 2**20
        est = sample_pair_space(n=n, seed=1)
        se = 0.5 / math.sqrt(n)
        assert abs(est.fractions["both_spacelike"] - 0.5) <= 4.0 * se

    def test_to_dict_has_no_region(self):
        est = sample_pair_space(n=100, seed=0)
        assert est.region is None
        d = json.loads(json.dumps(est.to_dict()))
        assert set(d) == {"counts", "fractions", "wilson_95", "seed", "n"}

    def test_counts_are_those_of_the_standard_normal_draws(self):
        def codes_of(rng, count):
            pairs = rng.standard_normal((count, 8))
            return classify_batch(pairs[:, :4], pairs[:, 4:])[0]

        est = sample_pair_space(n=sum(CHUNKS), seed=7)
        assert est.counts == chunked_counts(7, codes_of)

    @pytest.mark.parametrize("kwargs", BAD_PARAMETERS)
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            sample_pair_space(**kwargs)


def lattice(scan):
    """The scan's lattice points, one per row, in its row order."""
    return list(itertools.product(*scan.axes))


class TestGridScan:
    def test_single_cell_sits_at_the_low_corner(self, cx):
        region = Region(FourVector(0.0, 0.0, 0.0, 0.0), FourVector(0.02, 0.02, 0.02, 0.02))
        scan = grid_scan(cx, region, (1, 1, 1, 1))
        assert scan.axes == ((0.0,),) * 4
        assert scan.codes.tolist() == [TALLY_KEYS.index("both_spacelike")]
        assert math.isfinite(scan.theta[0])
        assert scan.w_plus_sq[0] < 0.0 and scan.w_minus_sq[0] < 0.0

    def test_even_resolution_on_symmetric_box_hits_the_center(self, cx):
        scan = grid_scan(cx, BOX, (4, 4, 4, 4))
        assert scan.axes == ((-0.5, -0.25, 0.0, 0.25),) * 4
        assert scan.codes.shape == scan.theta.shape == (256,)
        # row-major with x0 slowest: the center is row 2*64 + 2*16 + 2*4 + 2
        center = 2 * 64 + 2 * 16 + 2 * 4 + 2
        assert lattice(scan)[center] == (0.0, 0.0, 0.0, 0.0)
        assert TALLY_KEYS[scan.codes[center]] == "both_spacelike"
        assert all(xs[0] == -0.5 for xs in lattice(scan)[:64])

    def test_doubling_resolution_preserves_shared_points(self, cx):
        coarse = grid_scan(cx, BOX, (4, 4, 4, 4))
        fine = grid_scan(cx, BOX, (8, 8, 8, 8))
        verdict_at = dict(zip(lattice(fine), fine.codes.tolist()))
        for xs, code in zip(lattice(coarse), coarse.codes.tolist()):
            assert verdict_at[xs] == code

    def test_degenerate_cells_carry_nan_numerics(self, degenerate_field):
        region = Region(FourVector(0.0, 0.0, 0.0, 0.0), FourVector(1.0, 1.0, 1.0, 1.0))
        scan = grid_scan(degenerate_field, region, (2, 2, 2, 2))
        assert scan.codes.tolist() == [TALLY_KEYS.index("orthogonal_degenerate")] * 16
        assert np.isnan(scan.theta).all()
        assert np.isnan(scan.w_plus_sq).all() and np.isnan(scan.w_minus_sq).all()

    def test_node_cells(self, null_field):
        region = Region(FourVector(0.0, 0.0, 0.0, 0.0), FourVector(1.0, 1.0, 1.0, 1.0))
        scan = grid_scan(null_field, region, (2, 1, 1, 1))
        assert scan.codes.tolist() == [TALLY_KEYS.index("node")] * 2
        assert np.isnan(scan.theta).all()

    def test_counts_and_fraction(self, cx):
        scan = grid_scan(cx, BOX, (4, 4, 4, 4))
        counts = scan.counts()
        assert list(counts) == list(TALLY_KEYS)
        assert sum(counts.values()) == scan.codes.size == 256
        assert counts == {k: int((scan.codes == i).sum()) for i, k in enumerate(TALLY_KEYS)}
        # the lattice fraction of a bucket, as criterion 07 takes it
        both = TALLY_KEYS.index("both_spacelike")
        assert counts["both_spacelike"] / scan.codes.size == (scan.codes == both).mean()

    @pytest.mark.parametrize("resolution", [(0, 1, 1, 1), (1, 1, 1), (1, 1, 1, -2)])
    def test_rejects_bad_resolution(self, cx, resolution):
        with pytest.raises(ValueError):
            grid_scan(cx, BOX, resolution)

    @pytest.mark.parametrize(
        "resolution, named",
        [((2.9, 2, 2, 2), 0), ((True, 2, 2, 2), 0), (("3", 2, 2, 2), 0), ((2, 2, 2, 1.0), 3)],
    )
    def test_resolution_entries_must_be_integers(self, cx, resolution, named):
        # they once scanned int(r) x0 values without a word
        want = f"resolution[{named}] must be an integer >= 1, got {resolution[named]!r}"
        with pytest.raises(ValueError, match=re.escape(want)):
            grid_scan(cx, BOX, resolution)

    def test_csv_layout_and_roundtrip(self, cx, tmp_path):
        scan = grid_scan(cx, BOX, (2, 2, 2, 2))
        out = tmp_path / "scan.csv"
        write_scan_csv(scan, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "x0,x1,x2,x3,selection,theta,w_plus_sq,w_minus_sq"
        assert len(lines) == 1 + scan.codes.size
        row = lines[1].split(",")
        assert len(row) == 8
        assert tuple(float(v) for v in row[:4]) == lattice(scan)[0]
        assert row[4] == TALLY_KEYS[scan.codes[0]]
        assert float(row[5]) == scan.theta[0]


def oracle_csv(scan):
    """The scan's CSV as a per-cell f-string loop writes it, on the meshgrid
    of its axes."""
    x = np.stack(np.meshgrid(*scan.axes, indexing="ij"), axis=-1).reshape(-1, 4)
    rows = [
        f"{x0!r},{x1!r},{x2!r},{x3!r},{TALLY_KEYS[code]},{th!r},{wp_sq!r},{wm_sq!r}\n"
        for (x0, x1, x2, x3), code, th, wp_sq, wm_sq in zip(
            x.tolist(),
            scan.codes.tolist(),
            scan.theta.tolist(),
            scan.w_plus_sq.tolist(),
            scan.w_minus_sq.tolist(),
        )
    ]
    return "x0,x1,x2,x3,selection,theta,w_plus_sq,w_minus_sq\n" + "".join(rows)


WIDE = Tolerances(causal=0.3, ortho=0.2, node=0.3)
NEG_ZERO_BOX = Region(FourVector(-0.0, -0.0, -0.0, -0.0), FourVector(1.0, 0.3, 2.5, 1e-3))
# numpy scalar corners, whose repr is not a float's
NUMPY_BOX = Region(FourVector(*np.full(4, -0.5)), FourVector(*np.full(4, 0.5)))
SCAN_CASES = [
    ("cx", BOX, (1, 1, 1, 1), DEFAULT_TOLERANCES),
    ("cx", BOX, (1, 3, 1, 2), DEFAULT_TOLERANCES),
    ("cx", NEG_ZERO_BOX, (3, 2, 4, 2), DEFAULT_TOLERANCES),
    ("cx", BOX, (5, 4, 3, 2), WIDE),
    ("cx", NUMPY_BOX, (2, 3, 2, 1), DEFAULT_TOLERANCES),
    ("null_field", BOX, (2, 1, 3, 1), DEFAULT_TOLERANCES),
    ("degenerate_field", NEG_ZERO_BOX, (2, 3, 1, 2), DEFAULT_TOLERANCES),
    ("degenerate_field", BOX, (3, 3, 3, 3), WIDE),
    ("packet", BOX, (6, 6, 6, 6), DEFAULT_TOLERANCES),
    ("packet", NEG_ZERO_BOX, (7, 1, 1, 5), WIDE),
]


def scan_field(request, field):
    if field == "packet":
        return packet(8)
    return request.getfixturevalue(field)


class TestScanWriter:
    @pytest.mark.parametrize("field,region,resolution,tols", SCAN_CASES)
    def test_matches_the_per_cell_writer(
        self, request, monkeypatch, tmp_path, field, region, resolution, tols
    ):
        scan = grid_scan(scan_field(request, field), region, resolution, tols)
        assert scan.axes == tuple(
            _axis_coords(region.lo[i], region.hi[i], resolution[i]) for i in range(4)
        )
        out = tmp_path / "scan.csv"
        write_scan_csv(scan, out)
        assert out.read_bytes() == oracle_csv(scan).encode()
        # blocks of 5 rows put seams inside every case of more than 5 cells,
        # the NaN rows of null_field and degenerate_field and the -0.0 box
        # among them
        monkeypatch.setattr(measure, "_CSV_BLOCK", 5)
        write_scan_csv(scan, out)
        assert out.read_bytes() == oracle_csv(scan).encode()
        counts = scan.counts()
        assert sum(counts.values()) == math.prod(resolution)
        assert counts == {k: int((scan.codes == i).sum()) for i, k in enumerate(TALLY_KEYS)}

    def test_memory_stays_flat_in_the_lattice_size(self, cx, monkeypatch, tmp_path):
        # the writer holds one block of rows, never the whole text: four
        # times the cells must not take four times the traced peak
        monkeypatch.setattr(measure, "_CSV_BLOCK", 64)
        peaks = []
        for resolution in ((8, 8, 8, 4), (8, 8, 8, 16)):
            scan = grid_scan(cx, BOX, resolution)
            tracemalloc.start()
            try:
                write_scan_csv(scan, tmp_path / "scan.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    @pytest.mark.parametrize("field,region,resolution,tols", SCAN_CASES)
    def test_lattice_matches_the_event_path(self, request, field, region, resolution, tols):
        check_lattice(scan_field(request, field), region, resolution, tols)


def test_two_modes_never_give_both_spacelike():
    # Two modes put p and s in span(k1, k2), which holds the timelike k1, so
    # one candidate is timelike wherever psi != 0. Three modes on the same
    # boxes do give both_spacelike, so the zero is not a blind spot of the
    # sampling.
    rng = np.random.default_rng([2, 2])
    three_mode_hits = 0
    for _ in range(20):
        two = random_superposition(rng, n_modes=2)
        three = random_superposition(rng, n_modes=3)
        lo = rng.uniform(-3.0, 3.0, size=4)
        hi = lo + rng.uniform(0.5, 3.0, size=4)
        box = Region(FourVector(*lo.tolist()), FourVector(*hi.tolist()))
        assert estimate_spacetime_fraction(two, box, 4096, 0).counts["both_spacelike"] == 0
        assert grid_scan(two, box, (5, 5, 5, 5)).counts()["both_spacelike"] == 0
        three_mode_hits += (
            estimate_spacetime_fraction(three, box, 4096, 0).counts["both_spacelike"] > 0
            and grid_scan(three, box, (5, 5, 5, 5)).counts()["both_spacelike"] > 0
        )
    assert three_mode_hits >= 15
