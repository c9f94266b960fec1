"""The four benchmark workloads: seeded inputs, CLI calls and output checks.

Each workload turns `--seed` into a deterministic stream of `kgbohm` CLI
invocations (call i always gets the same arguments for a given seed), says
how many work items a finished call did, and checks every output against
an oracle that does not share the code path under test:

- box-measure: tallies sum to n; the pooled both_spacelike fraction lies
  within 4 combined standard errors of the fraction recorded at the seed
  commit in reference.json.
- pair-sample: tallies sum to n; the pooled both_spacelike fraction lies
  within 4 standard errors of the exact value 1/2.
- packet-scan: one CSV row per lattice cell, on the lattice, and every
  cell's verdict, theta and candidate norms agree with a vectorised numpy
  re-derivation of the construction; cells within 10x of a tolerance edge
  are exempt from the verdict comparison.
- trajectory-fan: each start's exit status and termination cause equal
  those of `kgbohm.trajectory.integrate` called directly on the same
  float start. Starts are written without an exponent; the starts whose
  shortest repr has one are also run in that form, outside the timing, to
  count how many the CLI refuses (a known argparse defect).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

Z95 = 1.959963984540054
TARGET_HALF_WIDTH = 1e-3
BOX_LO = ["-0.5"] * 4
BOX_HI = ["0.5"] * 4
TALLY = (
    "plus_timelike",
    "minus_timelike",
    "both_spacelike",
    "boundary",
    "orthogonal_degenerate",
    "node",
)
# Default --class-tol, --ortho-tol and --node-tol of the CLI; the oracles
# below reproduce verdicts at these values.
CLASS_TOL, ORTHO_TOL, NODE_TOL = 1e-9, 1e-9, 1e-12
BAND = 10.0


def wilson_half_width(k: int, n: int) -> float:
    p = k / n
    denom = 1.0 + Z95 * Z95 / n
    return (Z95 / denom) * math.sqrt(p * (1.0 - p) / n + Z95 * Z95 / (4.0 * n * n))


def needed_for_accuracy(k: int, n: int) -> float:
    """Verdicts needed to bring the both_spacelike Wilson half-width to 1e-3,
    projecting the measured half-width at n with the 1/sqrt(n) law."""
    return n * (wilson_half_width(k, n) / TARGET_HALF_WIDTH) ** 2


class Workload:
    name = ""
    item = ""  # what items_per_s counts
    calls_per_sample = 1  # calls pooled into one timing sample
    trace_calls = 1  # calls in the fixed-size traced run

    def __init__(self, work: Path, seed: int, scale: int = 1):
        self.work = work
        self.scale = scale  # divides input sizes in smoke mode
        self.rng = np.random.default_rng([seed, 0x6B67])

    def argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def setup_argv(self) -> list[str]:
        """A one-item call: start-up, parsing and config load dominate it."""
        raise NotImplementedError

    def out(self, i: int) -> Path:
        return self.work / f"{self.name}-{i}.out"

    def items(self, i: int, rc: int) -> int:
        raise NotImplementedError

    def collect(self, i: int, rc: int) -> None:
        """Called right after call i, outside its timing."""

    def check(self, i: int, rc: int) -> list[str]:
        """Failure messages for call i (empty when it is correct)."""
        raise NotImplementedError

    def check_run(self, calls: list[int]) -> list[str]:
        return []

    def accuracy(self, calls: list[int]) -> tuple[int, float]:
        """(verdicts those calls produced, verdicts needed for the target)."""
        raise NotImplementedError

    def bulk(self):
        """(function, args) for the workers speed-up, or None."""
        return None

    def repr_refusals(self, runner, wrong: list[str]) -> tuple[int, int]:
        """(calls refused, calls probed) with inputs in shortest repr;
        a probe whose other outcome is wrong is added to `wrong`."""
        return 0, 0


class _Tallied(Workload):
    """Shared by the two Monte Carlo workloads that write a JSON tally."""

    n_per_call = 0

    def __init__(self, work, seed, scale=1):
        super().__init__(work, seed, scale)
        self.n = max(64, self.n_per_call // scale)
        self.seeds = self.rng.integers(0, 2**31 - 1, size=1 << 16).tolist()

    def payload(self, i: int) -> dict:
        return json.loads(self.out(i).read_text())

    def items(self, i, rc):
        return self.n if rc == 0 else 0

    def check(self, i, rc):
        if rc != 0:
            return [f"call {i}: exit status {rc}"]
        try:
            d = self.payload(i)
        except (OSError, ValueError) as exc:
            return [f"call {i}: unreadable output: {exc}"]
        errs = []
        counts = d.get("counts", {})
        if set(counts) != set(TALLY) or sum(counts.values()) != self.n or d.get("n") != self.n:
            errs.append(f"call {i}: tallies {counts} do not sum to n={self.n}")
        if d.get("seed") != self.seeds[i]:
            errs.append(f"call {i}: seed {d.get('seed')} != {self.seeds[i]}")
        return errs

    def pooled(self, calls):
        k = sum(self.payload(i)["counts"]["both_spacelike"] for i in calls)
        return k, self.n * len(calls)

    def accuracy(self, calls):
        needed = []
        for i in calls:
            d = self.payload(i)
            lo, hi = d["wilson_95"]["both_spacelike"]
            needed.append(self.n * ((hi - lo) / 2.0 / TARGET_HALF_WIDTH) ** 2)
        return self.n * len(calls), float(np.median(needed))


class BoxMeasure(_Tallied):
    name = "box-measure"
    item = "samples"
    n_per_call = 4096
    trace_calls = 4

    def argv(self, i):
        return [
            "measure", "--builtin", "counterexample", "--lo", *BOX_LO, "--hi", *BOX_HI,
            "--n", str(self.n), "--seed", str(self.seeds[i]), "--out", str(self.out(i)),
        ]

    def setup_argv(self):
        return [
            "measure", "--builtin", "counterexample", "--lo", *BOX_LO, "--hi", *BOX_HI,
            "--n", "1", "--seed", str(self.seeds[0]), "--out", str(self.work / "setup.json"),
        ]

    def check_run(self, calls):
        ref = json.loads((Path(__file__).parent / "reference.json").read_text())["box-measure"]
        k, n = self.pooled(calls)
        f, f_ref = k / n, ref["both_spacelike"] / ref["n"]
        se = math.sqrt(f * (1 - f) / n + f_ref * (1 - f_ref) / ref["n"])
        if abs(f - f_ref) > 4.0 * se:
            return [f"both_spacelike fraction {f:.6f} is {abs(f - f_ref) / se:.1f} SE from the reference {f_ref:.6f}"]
        return []

    def bulk(self):
        from kgbohm import FourVector, Region, counterexample, estimate_spacetime_fraction

        region = Region(FourVector(-0.5, -0.5, -0.5, -0.5), FourVector(0.5, 0.5, 0.5, 0.5))
        return estimate_spacetime_fraction, (counterexample(), region, 2 * self.n, self.seeds[0])


class PairSample(_Tallied):
    name = "pair-sample"
    item = "pairs"
    n_per_call = 8192
    trace_calls = 3

    def argv(self, i):
        return ["sample-pairs", "--n", str(self.n), "--seed", str(self.seeds[i]), "--out", str(self.out(i))]

    def setup_argv(self):
        return ["sample-pairs", "--n", "1", "--seed", str(self.seeds[0]), "--out", str(self.work / "setup.json")]

    def check_run(self, calls):
        k, n = self.pooled(calls)
        se = 0.5 / math.sqrt(n)
        if abs(k / n - 0.5) > 4.0 * se:
            return [f"both_spacelike fraction {k / n:.6f} is {abs(k / n - 0.5) / se:.1f} SE from the exact 1/2"]
        return []

    def bulk(self):
        from kgbohm import sample_pair_space

        return sample_pair_space, (2 * self.n, self.seeds[0])


def positional(x: float) -> str:
    """The shortest decimal that reads back as x, without an exponent."""
    return np.format_float_positional(x, unique=True, trim="-")


def packet_config(rng: np.random.Generator, modes: int = 24) -> dict:
    """A mass-1 superposition of on-shell positive-energy modes: isotropic
    directions, |k| uniform in [1, 6], complex normal amplitudes."""
    out = []
    for _ in range(modes):
        d = rng.standard_normal(3)
        k = rng.uniform(1.0, 6.0) * d / np.linalg.norm(d)
        k0 = math.sqrt(1.0 + float(k @ k))
        c = rng.standard_normal(2)
        out.append({"k": [k0, *k.tolist()], "c": c.tolist()})
    return {"mass": 1.0, "modes": out}


def _minkowski(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, 0] * b[:, 0] - a[:, 1] * b[:, 1] - a[:, 2] * b[:, 2] - a[:, 3] * b[:, 3]


def oracle_verdicts(config: dict, x: np.ndarray):
    """Vectorised re-derivation of the verdict, theta and candidate norms at
    events x (N, 4). Returns (verdicts, theta, w_plus_sq, w_minus_sq,
    w_scale, in_band) where in_band marks events within BAND times a
    tolerance of a decision edge."""
    k = np.array([m["k"] for m in config["modes"]])
    c = np.array([complex(*m["c"]) for m in config["modes"]])
    e = c * np.exp(1j * (x @ k.T))
    psi = e.sum(axis=1)
    r = (1j * e @ k) / psi[:, None]
    p, s = r.real, r.imag
    node_thr = NODE_TOL * np.abs(c).sum()
    node = np.abs(psi) <= node_thr
    q = _minkowski(p, s)
    ortho_thr = ORTHO_TOL * np.linalg.norm(p, axis=1) * np.linalg.norm(s, axis=1)
    ortho = np.abs(q) <= ortho_thr
    with np.errstate(all="ignore"):
        th = np.arcsinh((_minkowski(p, p) - _minkowski(s, s)) / (2.0 * q))
        wp = np.exp(th)[:, None] * p + s
        wm = -np.exp(-th)[:, None] * p + s
    wp2, wm2 = _minkowski(wp, wp), _minkowski(wm, wm)
    thr_p = CLASS_TOL * (wp * wp).sum(axis=1)
    thr_m = CLASS_TOL * (wm * wm).sum(axis=1)
    verdict = np.full(len(x), "both_spacelike", dtype=object)
    verdict[wp2 > thr_p] = "plus_timelike"
    verdict[wm2 > thr_m] = "minus_timelike"
    verdict[(np.abs(wp2) <= thr_p) | (np.abs(wm2) <= thr_m)] = "boundary"
    verdict[ortho] = "orthogonal_degenerate"
    verdict[node] = "node"
    in_band = (
        (np.abs(psi) <= BAND * node_thr)
        | (np.abs(q) <= BAND * ortho_thr)
        | (np.abs(wp2) <= BAND * thr_p)
        | (np.abs(wm2) <= BAND * thr_m)
    )
    scale = np.maximum((wp * wp).sum(axis=1), (wm * wm).sum(axis=1))
    return verdict, th, wp2, wm2, scale, in_band


class PacketScan(Workload):
    name = "packet-scan"
    item = "cells"
    trace_calls = 12
    # Call i scans packet i % packets. The both_spacelike share differs from
    # packet to packet (0.20-0.24 over ten seeds); cycling several packets
    # steadies time_to_accuracy_s from one seed to the next.
    packets = 4

    def __init__(self, work, seed, scale=1):
        super().__init__(work, seed, scale)
        self.res = 6 if scale == 1 else 3
        self.configs = [packet_config(self.rng) for _ in range(self.packets)]
        self.config_paths = [work / f"packet-{j}.json" for j in range(self.packets)]
        for config, path in zip(self.configs, self.config_paths):
            path.write_text(json.dumps(config))
        self.offsets = self.rng.uniform(-10.0, 10.0, size=(1 << 12, 4)).tolist()

    def box(self, i):
        lo = [positional(o - 0.5) for o in self.offsets[i]]
        hi = [positional(o + 0.5) for o in self.offsets[i]]
        return lo, hi

    def argv(self, i):
        lo, hi = self.box(i)
        return [
            "scan", "--config", str(self.config_paths[i % self.packets]), "--lo", *lo, "--hi", *hi,
            "--resolution", *[str(self.res)] * 4, "--out", str(self.out(i)),
        ]

    def setup_argv(self):
        lo, hi = self.box(0)
        return [
            "scan", "--config", str(self.config_paths[0]), "--lo", *lo, "--hi", *hi,
            "--resolution", "1", "1", "1", "1", "--out", str(self.work / "setup.csv"),
        ]

    def rows(self, i):
        with open(self.out(i)) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.rstrip("\n").split(",") for line in fh]
        return header, rows

    def items(self, i, rc):
        return self.res**4 if rc == 0 else 0

    def check(self, i, rc):
        if rc != 0:
            return [f"call {i}: exit status {rc}"]
        try:
            header, rows = self.rows(i)
        except OSError as exc:
            return [f"call {i}: unreadable output: {exc}"]
        want = ["x0", "x1", "x2", "x3", "selection", "theta", "w_plus_sq", "w_minus_sq"]
        if header != want or len(rows) != self.res**4:
            return [f"call {i}: {len(rows)} rows with header {header}, want {self.res**4} rows"]
        x = np.array([[float(v) for v in r[:4]] for r in rows])
        lo = np.array(self.offsets[i]) - 0.5
        idx = np.indices((self.res,) * 4).reshape(4, -1).T
        if not np.allclose(x, lo + idx / self.res, rtol=0.0, atol=1e-12):
            return [f"call {i}: cells are not the row-major lattice of the box"]
        verdict, th, wp2, wm2, scale, band = oracle_verdicts(self.configs[i % self.packets], x)
        got = np.array([r[4] for r in rows], dtype=object)
        nums = np.array([[float(v) for v in r[5:8]] for r in rows])
        errs = []
        bad = (got != verdict) & ~band
        if bad.any():
            errs.append(f"call {i}: {int(bad.sum())} verdicts differ from the oracle")
        live = np.isin(verdict, ["plus_timelike", "minus_timelike", "both_spacelike", "boundary"]) & ~band
        if live.any():
            dth = np.abs(nums[live, 0] - th[live])
            dw = np.abs(nums[live, 1:] - np.stack([wp2, wm2], axis=1)[live]).max(axis=1)
            if dth.max() > 1e-6 or (dw / scale[live]).max() > 1e-6:
                errs.append(f"call {i}: theta or candidate norms differ from the oracle")
        return errs

    def accuracy(self, calls):
        k = n = 0
        for i in calls:
            _, rows = self.rows(i)
            k += sum(r[4] == "both_spacelike" for r in rows)
            n += len(rows)
        return n, needed_for_accuracy(k, n)

    def bulk(self):
        from kgbohm import FourVector, Region, grid_scan, load_superposition

        lo, hi = self.box(0)
        region = Region(FourVector(*map(float, lo)), FourVector(*map(float, hi)))
        return grid_scan, (load_superposition(self.config_paths[0]), region, (self.res,) * 4)


class TrajectoryFan(Workload):
    name = "trajectory-fan"
    item = "steps"
    calls_per_sample = 16
    trace_calls = 100
    step = 0.02
    max_steps = 100

    def __init__(self, work, seed, scale=1):
        super().__init__(work, seed, scale)
        if scale != 1:
            self.max_steps = 10
        self.starts = self.rng.uniform(-0.5, 0.5, size=(1 << 14, 4)).tolist()
        assert all(float(positional(x)) == x for s in self.starts for x in s)
        self._refs: dict[int, tuple[int, str | None]] = {}
        self._results: dict[int, tuple[int, str | None]] = {}

    def argv(self, i, form=positional):
        return [
            "trajectory", "--builtin", "counterexample", "--x0", *map(form, self.starts[i]),
            "--step", repr(self.step), "--max-steps", str(self.max_steps), "--out", str(self.out(i)),
        ]

    def setup_argv(self):
        argv = self.argv(0)
        argv[argv.index("--max-steps") + 1] = "1"
        argv[-1] = str(self.work / "setup.csv")
        return argv

    def result(self, i, rc):
        """(accepted steps, termination) read back from call i's CSV."""
        if i in self._results:
            return self._results[i]
        if rc != 0:
            return 0, None
        lines = self.out(i).read_text().splitlines()
        return len(lines) - 3, lines[-1].removeprefix("# termination: ")

    def collect(self, i, rc):
        # Thousands of calls per run: keep the result, not the files, so
        # the scratch directory does not grow and slow file creation.
        try:
            self._results[i] = self.result(i, rc)
        except OSError:
            return
        for p in self.work.glob(self.out(i).name + "*"):
            p.unlink()

    def items(self, i, rc):
        return self.result(i, rc)[0] if rc == 0 else 0

    def reference(self, i):
        if i not in self._refs:
            from kgbohm import (
                FieldOverflowError, FourVector, IllDefinedVelocityError, NodeError,
                TrajectoryConfig, counterexample, integrate,
            )

            cfg = TrajectoryConfig(step=self.step, max_steps=self.max_steps)
            try:
                res = integrate(counterexample(), FourVector(*self.starts[i]), cfg)
            except (IllDefinedVelocityError, NodeError, FieldOverflowError):
                self._refs[i] = (1, None)
            else:
                self._refs[i] = (0, res.termination.value)
        return self._refs[i]

    def check(self, i, rc):
        want_rc, want_term = self.reference(i)
        if rc != want_rc:
            return [f"start {i} {self.starts[i]!r}: exit status {rc}, reference {want_rc}"]
        try:
            _, term = self.result(i, rc)
        except OSError as exc:
            return [f"start {i}: unreadable output: {exc}"]
        if term != want_term:
            return [f"start {i}: termination {term}, reference {want_term}"]
        return []

    def repr_refusals(self, runner, wrong):
        """Run manifests record coordinates in shortest repr. argparse takes
        a negative number written with an exponent (-2.3e-05) for an option
        and exits 2. Every generated start whose repr differs from the
        positional form is run in repr form; refusals are counted, and any
        other exit status must match the reference."""
        probed = [i for i, s in enumerate(self.starts) if any(repr(x) != positional(x) for x in s)]
        refused = 0
        for i in probed:
            rc, _, _ = runner.call(self.argv(i, form=repr))
            if rc == 2:
                refused += 1
            elif rc != self.reference(i)[0]:
                wrong.append(f"start {i} in repr form: exit status {rc}, reference {self.reference(i)[0]}")
            for p in self.work.glob(self.out(i).name + "*"):
                p.unlink()
        return refused, len(probed)

    def accuracy(self, calls):
        ended = [self.reference(i)[1] for i in calls]
        k = sum(t == "entered_both_spacelike" for t in ended)
        return len(calls), needed_for_accuracy(k, len(calls))


WORKLOADS = {w.name: w for w in (BoxMeasure, PairSample, PacketScan, TrajectoryFan)}
