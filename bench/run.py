"""kgbohm benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload box-measure --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
./src). `--trace 0` times the untraced CLI and prints the end-to-end
metrics; `--trace 1` runs a fixed amount of the same work twice, untraced
and traced, and prints the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--selfcheck` runs every workload at tiny sizes in both modes and checks
the benchmark itself. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"

SETUP_PROBES = 9
IMPORT_PROBES = 5
REPLAY_CALLS = 400  # argument sets kept per replayed function
REPLAYED = (
    "wavefield.Superposition.polar_gradients",
    "construction.analyze_point",
    "construction.classify_pair",
)
# Timings are multiplied by host_speed(), so they read as if taken on a host
# that runs _kernel() in this many seconds.
KERNEL_REFERENCE_S = 2.0e-3
# Set-up probes are multiplied by spawn_speed(), so they read as if taken on
# a host that starts `python -c "import numpy"` in this many seconds.
SPAWN_REFERENCE_S = 0.1
SPAN_COVERAGE = 0.9  # share of the traced wall time the spans must cover
RK4_EVALS_PER_STEP = 4  # stage evaluations a fully accepted RK4 step needs


def machine() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unavailable"


def _kernel() -> float:
    acc = 0.0
    v = (0.1, 0.2, 0.3, 0.4)
    for i in range(5000):
        a = (v[0] * i, v[1] + i, v[2] - i, v[3])
        acc += math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3]) + math.cos(a[1])
    return acc


def host_speed() -> float:
    """How fast this host runs plain Python float code right now, relative
    to the reference: reference time over the time of a fixed kernel.

    A shared host's speed drifts by up to 1.7x for tens of seconds at a
    time. The kernel is timed at both ends of each timing sample and each
    set-up probe, and their mean scales that sample, which removes most of
    the drift. It is benchmark code, so no change to the program moves it.
    """
    t0 = time.perf_counter()
    _kernel()
    return KERNEL_REFERENCE_S / (time.perf_counter() - t0)


def spawn_speed() -> float:
    """How fast this host starts an interpreter that imports numpy right
    now, relative to the reference.

    Process start and import depend on more than the Python speed that
    host_speed() tracks: slow phases stretch them by up to 1.8x while the
    kernel moves by 1.2x. A fresh `import numpy` process is timed on either
    side of each set-up probe instead. It runs no program code.
    """
    return SPAWN_REFERENCE_S / fresh_process("import numpy", [])[1]


def tail_percentile(n: int) -> float | None:
    """Highest reported percentile with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    xs = sorted(values)
    return xs[min(len(xs) - 1, math.ceil(p / 100.0 * len(xs)) - 1)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_process(code: str, argv: list[str]) -> tuple[int, float, str]:
    """Run `python -c code argv...` in a new interpreter; wall time from spawn to exit."""
    t0 = time.perf_counter()
    p = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    return p.returncode, time.perf_counter() - t0, p.stdout


class Runner:
    """Calls `kgbohm.cli.main` in this process and records what each call did."""

    def __init__(self):
        import kgbohm.cli

        self.cli = kgbohm.cli

    def call(self, argv: list[str]) -> tuple[int, float, str]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects input this way
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                rc = -1
                traceback.print_exc()
            dt = time.perf_counter() - t0
        return rc, dt, sink.getvalue()


class Outcome:
    """Operation counts and failure messages for the final JSON line."""

    def __init__(self):
        self.attempted = 0
        self.refused: list[str] = []  # inputs the program would not accept
        self.wrong: list[str] = []  # outputs that failed their check

    def record(self, errors: list[str], rc: int) -> None:
        self.attempted += 1
        if errors:
            (self.refused if rc == 2 else self.wrong).append(errors[0])

    @property
    def failed(self) -> int:
        return len(self.refused) + len(self.wrong)


def verify(runner: Runner, outcome: Outcome) -> None:
    rc, _, text = runner.call(["verify"])
    ok = rc == 0 and "verify: PASS" in text
    outcome.record([] if ok else [f"kgbohm verify failed (exit {rc})"], rc)


def measure_setup(wl, outcome: Outcome, probes: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh one-item CLI processes, raw and scaled by the
    spawn speed measured on either side of each. The first probe warms the
    file cache and is not timed."""
    code = "import sys; from kgbohm.cli import main; sys.exit(main(sys.argv[1:]))"

    def probe() -> float:
        rc, dt, _ = fresh_process(code, wl.setup_argv())
        ok = rc in (0, 1)  # a one-step trajectory may start ill-defined
        outcome.record([] if ok else [f"set-up probe exit status {rc}"], rc)
        return dt

    probe()
    raw, scaled = [], []
    speed = spawn_speed()
    for _ in range(probes):
        dt = probe()
        after = spawn_speed()
        raw.append(dt)
        scaled.append(dt * (speed + after) / 2.0)
        speed = after
    return raw, scaled


def summary(name: str, unit: str, values: list[float], raw: list[float] | None = None, slow_high=True) -> dict:
    """A metric row: the median, the slow-side tail percentile when there
    are samples enough, and the median of the unscaled samples if given."""
    row = {"name": name, "unit": unit, "value": statistics.median(values), "n": len(values)}
    p = tail_percentile(len(values))
    if p is not None:
        row["tail"] = (p, percentile(values, p) if slow_high else percentile(values, 100.0 - p))
    if raw is not None:
        row["raw_median"] = statistics.median(raw)
    return row


def run_plain(wl, seconds: float, outcome: Outcome, probes: int) -> list[dict]:
    runner = Runner()
    verify(runner, outcome)
    setup_raw, setup = measure_setup(wl, outcome, probes)

    calls: list[tuple[int, int, float]] = []  # (index, rc, seconds)
    rc, dt, _ = runner.call(wl.argv(0))  # warm-up: checked, not timed
    calls.append((0, rc, dt))
    wl.collect(0, rc)
    boundary = [host_speed()]  # host speed between timing samples
    deadline = time.perf_counter() + seconds
    i = 1
    while True:
        rc, dt, _ = runner.call(wl.argv(i))
        calls.append((i, rc, dt))
        wl.collect(i, rc)
        if i % wl.calls_per_sample == 0:
            boundary.append(host_speed())
            if time.perf_counter() >= deadline:
                break
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for idx, rc, _ in calls:
        outcome.record(wl.check(idx, rc), rc)
    outcome.wrong += wl.check_run([idx for idx, _, _ in calls])

    timed = calls[1:]
    items = {idx: wl.items(idx, rc) for idx, rc, _ in timed}
    raw_rates = []
    for k in range(0, len(timed), wl.calls_per_sample):
        group = timed[k : k + wl.calls_per_sample]
        raw_rates.append(sum(items[idx] for idx, _, _ in group) / sum(dt for _, _, dt in group))
    speeds = [(x + y) / 2.0 for x, y in zip(boundary, boundary[1:])]
    rates = [r / s for r, s in zip(raw_rates, speeds)]
    items_per_s = statistics.median(rates)
    verdicts, needed = wl.accuracy([idx for idx, _, _ in timed])
    verdict_rate = items_per_s * verdicts / sum(items.values())
    setup_s = statistics.median(setup)
    return [
        summary("items_per_s", "items/s", rates, raw_rates, slow_high=False),
        summary("setup_s", "s", setup, setup_raw),
        summary("time_to_accuracy_s", "s", [setup_s + needed / verdict_rate]),
        summary("peak_rss_mb", "MB", [peak_rss_mb]),
    ]


def run_outputs(wl, i: int) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(wl.work.glob(wl.out(i).name + "*"))}


def timed_pass(runner: Runner, wl, tracer=None) -> tuple[float, dict]:
    record = {}
    t0 = time.perf_counter()
    for i in range(wl.trace_calls):
        if tracer is not None:
            tracer.run_id = i
        rc, _, text = runner.call(wl.argv(i))
        record[i] = (rc, text, run_outputs(wl, i))
    return time.perf_counter() - t0, record


def replay_us(fn, samples: list[tuple]) -> float:
    """Untraced microseconds per call of fn over recorded arguments."""
    if not samples:
        return 0.0
    reps = []
    for _ in range(5):
        t0 = time.perf_counter()
        for args, kwargs in samples:
            try:
                fn(*args, **kwargs)
            except Exception:  # verdicts raised as exceptions are part of the cost
                pass
        reps.append((time.perf_counter() - t0) / len(samples) * 1e6)
    return statistics.median(reps)


def workers_speedup(wl) -> float:
    job = wl.bulk()
    if job is None:
        return 0.0
    fn, args = job
    if "workers" not in inspect.signature(fn).parameters:
        return 0.0
    best = {1: math.inf, 2: math.inf}
    for _ in range(2):
        for w in (1, 2):
            t0 = time.perf_counter()
            fn(*args, workers=w)
            best[w] = min(best[w], time.perf_counter() - t0)
    return best[1] / best[2]


def run_traced(wl, outcome: Outcome, probes: int) -> list[dict]:
    from tracing import LAYERS, Tracer

    runner = Runner()
    verify(runner, outcome)
    code = "import time; t = time.perf_counter(); import kgbohm.cli; print(time.perf_counter() - t)"
    import_s = []
    for _ in range(probes):
        rc, _, out = fresh_process(code, [])
        outcome.record([] if rc == 0 else [f"import probe exit status {rc}"], rc)
        if rc == 0:
            import_s.append(float(out))

    runner.call(wl.argv(0))  # warm-up
    wall_plain, plain = timed_pass(runner, wl)
    tracer = Tracer(sample_args={name: REPLAY_CALLS for name in REPLAYED})
    tracer.install()
    try:
        wall_traced, traced = timed_pass(runner, wl, tracer)
    finally:
        tracer.uninstall()

    items = 0
    for i, (rc, _, _) in traced.items():
        outcome.record(wl.check(i, rc), rc)
        items += wl.items(i, rc)
        if traced[i] != plain[i]:
            outcome.wrong.append(f"call {i}: traced output differs from untraced output")
    items = max(items, 1)

    a = tracer.arrays()
    overhead = wall_traced / wall_plain
    outcome.wrong += span_checks(a, wall_traced)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    tracer.write_csv(ROOT / ".bench_work" / f"trace-{wl.name}.csv")

    def spans(name):
        return tracer.name_mask(a, name)

    rows = []
    total_self = float(a["self"].sum()) or 1.0
    parent_layer = np.where(a["parent"] >= 0, a["layer"][a["parent"]], -1)
    for li, layer in enumerate(LAYERS):
        m = a["layer"] == li
        self_s = float(a["self"][m].sum())
        rows += [
            {"name": f"{layer}.calls_per_item", "unit": "calls/item", "value": int(m.sum()) / items},
            {"name": f"{layer}.self_s", "unit": "s", "value": self_s},
            {"name": f"{layer}.self_share", "unit": "fraction", "value": self_s / total_self},
            {"name": f"{layer}.raised", "unit": "count", "value": int((m & a["raised"] & (parent_layer != li)).sum())},
        ]
    for name in REPLAYED:
        short = name.replace("Superposition.", "")
        rows.append({"name": f"{short}.us_per_call", "unit": "us", "value": replay_us(tracer.originals.get(name), tracer.samples[name])})

    write = np.zeros(len(a["name"]), dtype=bool)
    for name in tracer.names:
        if name.startswith("measure.write"):
            write |= spans(name)
    write_s = float(a["dur"][write].sum())
    write_bytes = sum(wl.out(int(r)).stat().st_size for r in set(np.array(tracer.run_ids)[write].tolist()))
    rows += [
        {"name": "measure.write_s", "unit": "s", "value": write_s},
        {"name": "measure.write_bytes", "unit": "B", "value": write_bytes},
        {"name": "measure.write_mb_per_s", "unit": "MB/s", "value": write_bytes / 1e6 / write_s if write_s else 0.0},
        {"name": "measure.speedup_2w", "unit": "x", "value": workers_speedup(wl)},
    ]

    integ = spans("trajectory.integrate")
    evals = int((spans("construction.analyze_point") & (a["parent"] >= 0) & integ[np.maximum(a["parent"], 0)]).sum())
    answered = int((integ & ~a["raised"]).sum())
    steps = items if integ.any() else 0
    wasted = evals - int(integ.sum()) - RK4_EVALS_PER_STEP * steps
    rows += [
        {"name": "trajectory.stage_evals_per_step", "unit": "evals/step", "value": evals / steps if steps else 0.0},
        {"name": "trajectory.wasted_eval_frac", "unit": "fraction", "value": wasted / evals if evals else 0.0},
        {"name": "trajectory.steps_per_path", "unit": "steps", "value": steps / answered if answered else 0.0},
    ]

    mains = spans("cli.main")
    cli_self = float(a["self"][a["layer"] == LAYERS.index("cli")].sum())
    config = (spans("wavefield.load_superposition") | spans("wavefield.counterexample")) & (
        a["parent"] >= 0
    ) & (a["layer"][np.maximum(a["parent"], 0)] == LAYERS.index("cli"))
    n_main = max(int(mains.sum()), 1)
    rows += [
        {"name": "cli.per_invocation_s", "unit": "s", "value": cli_self / n_main},
        {"name": "cli.import_s", "unit": "s", "value": statistics.median(import_s) if import_s else 0.0},
        {"name": "cli.config_load_s", "unit": "s", "value": float(a["dur"][config].sum()) / n_main},
        {"name": "trace.overhead", "unit": "ratio", "value": overhead},
    ]
    for row in rows:
        row["n"] = 1
    return rows


def span_checks(a: dict, wall_traced: float) -> list[str]:
    errs = []
    has = a["parent"] >= 0
    par = a["parent"][has]
    if (a["start"][has] < a["start"][par]).any() or (a["end"][has] > a["end"][par]).any():
        errs.append("trace: a span ends outside its parent")
    if (a["self"] < -1e-9).any():
        errs.append(f"trace: negative self time {float(a['self'].min())!r}")
    total = float(a["self"].sum())
    if not (SPAN_COVERAGE * wall_traced <= total <= wall_traced * (1 + 1e-9)):
        errs.append(f"trace: self times sum to {total:.4f} s, traced wall {wall_traced:.4f} s")
    if len(a["name"]) and not np.isfinite(a["dur"]).all():
        errs.append("trace: non-finite span duration")
    return errs


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    info = machine()
    load_start = loadavg()
    try:
        wl = WORKLOADS[name](work, seed, scale=16 if smoke else 1)
        probes = 2 if smoke else (IMPORT_PROBES if trace else SETUP_PROBES)
        rows = run_traced(wl, outcome, probes) if trace else run_plain(wl, seconds, outcome, probes)
        refused, probed = wl.repr_refusals(Runner(), outcome.wrong)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["loadavg_start"], info["loadavg_end"] = load_start, loadavg()

    print(f"workload {name}  seed {seed}  trace {int(trace)}  " + "  ".join(f"{k}={v}" for k, v in info.items()))
    print(f"  items are {WORKLOADS[name].item}")
    if trace:
        rows.append({"name": "cli.repr_refused", "unit": "count", "value": refused, "n": probed})
    elif probed:
        print(f"  known defect: {refused} of {probed} starts written in shortest repr refused (exit 2)")
    for row in rows:
        line = f"  {row['name']:<40} {row['value']:>14.6g} {row['unit']:<12} n={row['n']}"
        if "raw_median" in row:
            line += f"  unscaled median {row['raw_median']:.6g}"
        if "tail" in row:
            line += f"  p{row['tail'][0]:g} (slow side) = {row['tail'][1]:.6g}"
        print(line)
    print(f"  failed_frac {outcome.failed}/{outcome.attempted} = {outcome.failed / max(outcome.attempted, 1):.6g}")
    for msg in (outcome.refused + outcome.wrong)[:20]:
        print(f"  failure: {msg}")
    result = {
        "correct": not outcome.wrong,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {row["name"]: {"value": row["value"], "unit": row["unit"]} for row in rows},
    }
    with open(ROOT / ".bench_work" / "runs.jsonl", "a") as fh:
        record = {"workload": name, "seed": seed, "trace": int(trace), "seconds": seconds, "machine": info}
        fh.write(json.dumps({**record, **result}) + "\n")
    return result


def selfcheck() -> int:
    """Every workload at tiny sizes, both modes: metric names and units match
    BENCHMARK.json, outputs pass their checks, spans are consistent."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errs = []
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res = run_one(name, 0, 0.5, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            for k in want.keys() - got.keys():
                errs.append(f"{name} trace={int(trace)}: metric {k} missing")
            for k in got.keys() - want.keys():
                errs.append(f"{name} trace={int(trace)}: metric {k} not in BENCHMARK.json")
            for k in want.keys() & got.keys():
                if want[k] != got[k]:
                    errs.append(f"{name}: {k} unit {got[k]} != {want[k]}")
            if not res["correct"]:
                errs.append(f"{name} trace={int(trace)}: outputs failed their checks")
    for e in errs:
        print(f"selfcheck: {e}")
    print(f"selfcheck: {'PASS' if not errs else 'FAIL'}")
    return 0 if not errs else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not (SRC / "kgbohm" / "__init__.py").is_file():
        print(f"error: no kgbohm sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    if args.selfcheck:
        return selfcheck()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
