"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints exactly one
[PASS]/[FAIL] line (visible with pytest -s), and then asserts it. Where a
criterion compares against a statistical reference, the combined standard
error includes every known variance source and the raw binomial reading is
printed alongside for transparency.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from kgbohm import (
    DEFAULT_TOLERANCES,
    TALLY_KEYS,
    BothTimelikeError,
    FourVector,
    PlaneClass,
    Region,
    Selection,
    Termination,
    TrajectoryConfig,
    analyze_point,
    classify_batch,
    counterexample,
    estimate_spacetime_fraction,
    grid_scan,
    inner,
    integrate,
    sample_pair_space,
)
from kgbohm.cli import main
from kgbohm.construction import _candidates
from kgbohm.minkowski import euclidean_sq, plane_class
from support import evaluate, gradient, random_point, random_superposition

ORIGIN = FourVector(0.0, 0.0, 0.0, 0.0)
BOX = Region(FourVector(-0.5, -0.5, -0.5, -0.5), FourVector(0.5, 0.5, 0.5, 0.5))
TOL = 1e-9

# 20^4 corner-lattice fraction of the sampling box, pinned from an
# independent run, plus its first-order Richardson discretization
# uncertainty 2*|p40 - p20| from a 40^4 refinement (p40 = 0.156671875).
# The lattice covers [-0.5, 0.45]^4, so its fraction carries an O(h)
# coverage bias that pure binomial error bars do not see.
GRID_PIN = 24420 / 160000
GRID_DISCRETIZATION_SIGMA = 0.00809375


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}", flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


@dataclass
class Bank:
    samples: int
    finite: int
    both_timelike: int
    max_ortho_ratio: float
    margin_filtered: int
    margin_agree: int
    seconds: float


def _margins(p, s, wp, wm):
    mp = abs(inner(wp, wp)) / euclidean_sq(wp)
    mm = abs(inner(wm, wm)) / euclidean_sq(wm)
    aa, ab, bb = inner(p, p), inner(p, s), inner(s, s)
    det = aa * bb - ab * ab
    mg = abs(det) / (euclidean_sq(p) * euclidean_sq(s))
    return min(mp, mm, mg)


@pytest.fixture(scope="module")
def field_bank():
    """10^4 random superpositions, one random event each."""
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    finite = tt = filtered = agree = 0
    max_ratio = 0.0
    for _ in range(10_000):
        w = random_superposition(rng)
        x = random_point(rng)
        try:
            a = analyze_point(w, x)
        except BothTimelikeError:
            tt += 1
            continue
        if a.theta is None:  # node or p.s ~ 0: no candidates to check
            continue
        finite += 1
        ratio = abs(inner(a.w_plus, a.w_minus)) / (
            math.sqrt(euclidean_sq(a.w_plus)) * math.sqrt(euclidean_sq(a.w_minus))
        )
        max_ratio = max(max_ratio, ratio)
        if _margins(a.p_mu, a.s_mu, a.w_plus, a.w_minus) > 10 * TOL:
            filtered += 1
            if (a.selection is Selection.BOTH_SPACELIKE) == (
                a.plane is PlaneClass.SPACELIKE_PLANE
            ):
                agree += 1
    return Bank(
        10_000, finite, tt, max_ratio, filtered, agree, time.perf_counter() - t0
    )


@pytest.fixture(scope="module")
def pair_bank():
    """10^5 raw gradient pairs with iid standard normal components."""
    rng = np.random.default_rng(4242)
    rows = rng.standard_normal((100_000, 8)).tolist()
    t0 = time.perf_counter()
    finite = tt = filtered = agree = 0
    max_ratio = 0.0
    for row in rows:
        p = FourVector(row[0], row[1], row[2], row[3])
        s = FourVector(row[4], row[5], row[6], row[7])
        try:
            th, wp, wm, _, _, sel = _candidates(p, s, DEFAULT_TOLERANCES)
        except BothTimelikeError:
            tt += 1
            continue
        if th is None:
            continue
        finite += 1
        scale = math.sqrt(euclidean_sq(wp)) * math.sqrt(euclidean_sq(wm))
        ratio = abs(inner(wp, wm)) / scale
        max_ratio = max(max_ratio, ratio)
        if _margins(p, s, wp, wm) > 10 * TOL:
            filtered += 1
            if (sel is Selection.BOTH_SPACELIKE) == (
                plane_class(p, s) is PlaneClass.SPACELIKE_PLANE
            ):
                agree += 1
    return Bank(
        100_000, finite, tt, max_ratio, filtered, agree, time.perf_counter() - t0
    )


def test_criterion_01_closed_form_gradients(capsys):
    t0 = time.perf_counter()
    exit_code = main(["verify"])
    capsys.readouterr()
    a = analyze_point(counterexample(1.0), ORIGIN)
    gamma = 3.0 - 1.0 / math.sqrt(3.0)
    alpha = math.sqrt(26.0) / gamma
    beta = alpha / math.sqrt(3.0)
    p_err = max(
        abs(g - e) for g, e in zip(a.p_mu, FourVector(0.0, alpha, -alpha, 0.0))
    ) / alpha
    s_err = max(
        abs(g - e) for g, e in zip(a.s_mu, FourVector(0.0, -beta, 0.0, 0.0))
    ) / beta
    elapsed = time.perf_counter() - t0
    ok = exit_code == 0 and p_err <= 1e-12 and s_err <= 1e-12 and elapsed < 1.0
    with capsys.disabled():
        report(
            1,
            ok,
            f"gradients match closed form (p err {p_err:.2e}, s err {s_err:.2e}, "
            f"verify exit {exit_code}, {elapsed:.2f}s)",
        )


def test_criterion_02_both_spacelike_at_origin(capsys):
    t0 = time.perf_counter()
    a = analyze_point(counterexample(1.0), ORIGIN)
    elapsed = time.perf_counter() - t0
    ok = (
        inner(a.w_plus, a.w_plus) < 0.0
        and inner(a.w_minus, a.w_minus) < 0.0
        and a.selection is Selection.BOTH_SPACELIKE
        and a.plane is PlaneClass.SPACELIKE_PLANE
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(
            2,
            ok,
            f"origin verdict {a.selection.value}/{a.plane.value} "
            f"(w+.w+ = {inner(a.w_plus, a.w_plus):.4f}, "
            f"w-.w- = {inner(a.w_minus, a.w_minus):.4f}, {elapsed:.2f}s)",
        )


def test_criterion_03_candidates_always_orthogonal(capsys, field_bank):
    ok = (
        field_bank.finite > 0
        and field_bank.max_ortho_ratio <= 1e-9
        and field_bank.seconds < 10.0
    )
    with capsys.disabled():
        report(
            3,
            ok,
            f"max |w+.w-| / (|w+||w-|) = {field_bank.max_ortho_ratio:.2e} over "
            f"{field_bank.finite} field samples ({field_bank.seconds:.2f}s)",
        )


def test_criterion_04_never_both_timelike(capsys, field_bank, pair_bank):
    total_tt = field_bank.both_timelike + pair_bank.both_timelike
    ok = total_tt == 0
    with capsys.disabled():
        report(
            4,
            ok,
            f"(timelike, timelike) occurrences: {total_tt} over "
            f"{field_bank.samples} field samples + {pair_bank.samples} raw pairs",
        )


def test_criterion_05_gram_criterion_equivalence(capsys, field_bank, pair_bank):
    filtered = field_bank.margin_filtered + pair_bank.margin_filtered
    agree = field_bank.margin_agree + pair_bank.margin_agree
    ok = filtered > 0 and agree == filtered
    with capsys.disabled():
        report(
            5,
            ok,
            f"both-spacelike <=> spacelike-plane on {agree}/{filtered} samples "
            "with margins > 10x tolerance",
        )


def test_criterion_06_gradient_finite_difference_order(capsys):
    w = counterexample(1.0)
    h = 1e-3

    def fd_error(x, step):
        g = gradient(w, x)
        total = 0.0
        for mu in range(4):
            offset = [0.0] * 4
            offset[mu] = step
            xp = FourVector(*(a + b for a, b in zip(x, offset)))
            xm = FourVector(*(a - b for a, b in zip(x, offset)))
            total += abs((evaluate(w, xp) - evaluate(w, xm)) / (2.0 * step) - g[mu])
        return total

    rng = np.random.default_rng(1000)
    ratios = []
    for _ in range(100):
        x = FourVector(*(float(v) for v in rng.uniform(-2.0, 2.0, 4)))
        ratios.append(fd_error(x, h) / fd_error(x, h / 2.0))
    ok = all(2.5 <= r <= 6.0 for r in ratios)
    with capsys.disabled():
        report(
            6,
            ok,
            f"err(h)/err(h/2) in [{min(ratios):.3f}, {max(ratios):.3f}] "
            "at 100 random points (second order = 4)",
        )


def test_criterion_07_positive_measure_in_spacetime(capsys):
    t0 = time.perf_counter()
    w = counterexample(1.0)
    est = estimate_spacetime_fraction(w, BOX, n=100_000, seed=7)
    p_mc = est.fractions["both_spacelike"]
    wilson_lo = est.wilson_95["both_spacelike"][0]
    scan = grid_scan(w, BOX, (20, 20, 20, 20))
    p_grid = scan.counts()["both_spacelike"] / scan.codes.size
    elapsed = time.perf_counter() - t0

    assert p_grid == GRID_PIN  # lattice fraction is deterministic
    se_mc = math.sqrt(p_mc * (1.0 - p_mc) / est.n)
    se_grid_binomial = math.sqrt(p_grid * (1.0 - p_grid) / scan.codes.size)
    deviation = abs(p_mc - p_grid)
    binomial_sigmas = deviation / math.hypot(se_mc, se_grid_binomial)
    combined_se = math.hypot(se_mc, GRID_DISCRETIZATION_SIGMA)
    sigmas = deviation / combined_se

    ok = wilson_lo > 0.0 and sigmas <= 3.0 and elapsed < 60.0
    with capsys.disabled():
        report(
            7,
            ok,
            f"both-spacelike fraction {p_mc:.5f} (Wilson lower {wilson_lo:.5f} > 0), "
            f"vs 20^4 grid {p_grid:.6f}: {sigmas:.2f} combined SE "
            f"[binomial-only reading: {binomial_sigmas:.2f} SE, biased by O(h) "
            f"lattice coverage], {elapsed:.1f}s",
        )


def test_criterion_08_positive_measure_in_pair_space(capsys):
    n = 100_000
    runs = [sample_pair_space(n, seed) for seed in range(1, 11)]
    fractions = [r.fractions["both_spacelike"] for r in runs]
    wilson_lows = [r.wilson_95["both_spacelike"][0] for r in runs]
    mean = sum(fractions) / len(fractions)
    se_pool = math.sqrt(mean * (1.0 - mean) / (len(fractions) * n))

    def sigmas_from_mean(p):
        return abs(p - mean) / math.hypot(math.sqrt(p * (1.0 - p) / n), se_pool)

    max_sigmas = max(sigmas_from_mean(p) for p in fractions)
    spread = max(fractions) - min(fractions)

    # the verdicts are scale-free: the same normal draws times 10 (not a
    # power of two, so every float rounds) give the same fraction
    pairs = np.random.default_rng(1).standard_normal((n, 8))
    both = TALLY_KEYS.index("both_spacelike")
    scaled = [
        (classify_batch(f * pairs[:, :4], f * pairs[:, 4:])[0] == both).mean()
        for f in (1.0, 10.0)
    ]
    se_single = math.sqrt(mean * (1.0 - mean) / n)
    scale_sigmas = abs(scaled[1] - scaled[0]) / (math.sqrt(2.0) * se_single)
    exact = " (fractions equal)" if scaled[0] == scaled[1] else ""

    ok = all(lo > 0.0 for lo in wilson_lows) and max_sigmas <= 3.0 and scale_sigmas <= 3.0
    with capsys.disabled():
        report(
            8,
            ok,
            f"fraction {mean:.5f} over 10 seeds, each within "
            f"{max_sigmas:.2f} combined SE of the pooled mean "
            f"[spread {spread:.5f}]; draws x1 vs x10 differ by "
            f"{scale_sigmas:.2f} SE{exact}",
        )


def test_criterion_09_trajectory_contract(capsys, two_mode):
    start = FourVector(0.3, 0.7, 0.0, 0.0)
    T = 2.0
    results = {}

    def final_x(steps):
        res = integrate(
            two_mode, start, TrajectoryConfig(step=T / steps, max_steps=steps)
        )
        assert res.termination is Termination.MAX_STEPS
        results[steps] = res
        return res.points[-1].x

    ref = final_x(2048)

    def err(steps):
        return math.dist(final_x(steps), ref)

    e1, e2, e3 = err(8), err(16), err(32)
    orders = [math.log2(e1 / e2), math.log2(e2 / e3)]

    into_hole = integrate(
        counterexample(1.0),
        FourVector(-0.6, -0.45, 0.4, 0.0),
        TrajectoryConfig(step=0.02, max_steps=400),
    )
    tangent_defect = 0.0
    future = True
    for res in list(results.values()) + [into_hole]:
        for pt in res.points:
            tangent_defect = max(tangent_defect, abs(inner(pt.u, pt.u) - 1.0))
            future = future and pt.u.c0 > 0.0

    ok = (
        all(3.5 <= o <= 4.5 for o in orders)
        and tangent_defect <= 1e-9
        and future
        and into_hole.termination is Termination.ENTERED_BOTH_SPACELIKE
    )
    with capsys.disabled():
        report(
            9,
            ok,
            f"RK4 orders {orders[0]:.2f}/{orders[1]:.2f}, max |u.u - 1| = "
            f"{tangent_defect:.1e}, all future-pointing: {future}, "
            f"termination {into_hole.termination.value}",
        )


def test_criterion_10_byte_identical_reruns(capsys, tmp_path):
    def rerun_bytes(argv, out):
        blobs = []
        for _ in range(2):
            assert main(argv) == 0
            paths = sorted(tmp_path.glob(f"{out.name}*"))
            blobs.append(tuple(p.read_bytes() for p in paths))
            for p in paths:
                p.unlink()
        return blobs

    box = ["--lo", "-0.5", "-0.5", "-0.5", "-0.5",
           "--hi", "0.5", "0.5", "0.5", "0.5"]
    checks = {}

    out = tmp_path / "scan.csv"
    blobs = rerun_bytes(
        ["scan", "--builtin", "counterexample", *box,
         "--resolution", "9", "9", "9", "9", "--out", str(out)],
        out,
    )
    checks["scan"] = blobs[0] == blobs[1]

    out = tmp_path / "measure.json"
    blobs = rerun_bytes(
        ["measure", "--builtin", "counterexample", *box,
         "--n", "20000", "--seed", "11", "--out", str(out)],
        out,
    )
    checks["measure"] = blobs[0] == blobs[1]

    out = tmp_path / "pairs.json"
    blobs = rerun_bytes(
        ["sample-pairs", "--n", "20000", "--seed", "3", "--out", str(out)],
        out,
    )
    checks["sample-pairs"] = blobs[0] == blobs[1]

    out = tmp_path / "traj.csv"
    blobs = rerun_bytes(
        ["trajectory", "--builtin", "counterexample",
         "--x0", "-0.6", "-0.45", "0.4", "0",
         "--step", "0.02", "--max-steps", "400", "--out", str(out)],
        out,
    )
    checks["trajectory"] = blobs[0] == blobs[1]

    capsys.readouterr()
    ok = all(checks.values())
    with capsys.disabled():
        report(
            10,
            ok,
            "outputs + manifests byte-identical across reruns: "
            + ", ".join(f"{k}={'yes' if v else 'NO'}" for k, v in checks.items()),
        )
