"""obfusense benchmark: one workload, closed loop, for a fixed time.

    python3 perfbench/run.py --workload walk_detect --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from the `src/` directory next to
this one. A run sets up several times (import, scenario load, simulator
construction) and reports the median set-up time, runs one untimed warm-up
iteration, then repeats the workload one call after another until `--seconds`
have passed. Times are reported in calibrated reference seconds (see
REFERENCE_LOOP_S). Every iteration's outputs are checked (see workloads.py and
expected.json). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it, starting
with "perfbench:", records the environment, sample count and failures.

--trace 0 reports the end-to-end metrics with no wrappers installed.
--trace 1 spends half of the time untraced and half with span wrappers around
the package's functions (tracing.py) and reports the per-layer metrics,
including how much the wrappers added.

--record stores the current outputs for --seed in expected.json instead of
measuring; do it only for the default and hold-out seeds, and only in a change
that means to alter the numbers.
"""
from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

# One BLAS thread: the workloads are a single-core closed loop, and the
# calibration loop below tracks the speed of one core only. Set before numpy
# is imported; the thread count is recorded on the "perfbench:" line.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from tracing import Tracer, per_layer_metrics, session_counter, unattributed_share  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected.json"

MODULES = ("channel", "irs", "sensing", "experiments", "io", "cli")
SETUP_REPS = 7
TRACED_SETUP_REPS = 3
# share of the traced wall time that may fall outside every span
ACCOUNTING_TOLERANCE = 0.02
# On a shared 2-core VM the speed of the host drifts by a quarter or more over
# minutes, which no run length averages away. Each timed call therefore comes
# right after a fixed pure-Python loop, and its time is reported in reference
# seconds: measured seconds * REFERENCE_LOOP_S / the loop's measured time,
# i.e. seconds on a host where the loop takes REFERENCE_LOOP_S. The loop does
# not touch obfusense. Raw medians are printed on the "perfbench:" line.
REFERENCE_LOOP_S = 0.0075

CONFIG = """\
[anchor]
position = 1.2 2.75

[eavesdropper]
position = 6.3 2.75

[experiment]
seed = {seed}
"""


def import_package():
    """Import obfusense afresh, so each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "obfusense" or m.startswith("obfusense.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"obfusense.{m}") for m in MODULES})


def calibration_loop() -> float:
    """Seconds taken by a fixed amount of interpreter work."""
    t0 = perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    return perf_counter() - t0


class Timings:
    """Raw seconds of timed calls and of the calibration loop before each."""

    def __init__(self):
        self.raw, self.loops = [], []

    def time(self, fn, *args):
        self.loops.append(calibration_loop())
        t0 = perf_counter()
        result = fn(*args)
        self.raw.append(perf_counter() - t0)
        return result

    @property
    def scale(self) -> float:
        return REFERENCE_LOOP_S / statistics.median(self.loops)

    @property
    def calibrated(self) -> list:
        return [r * REFERENCE_LOOP_S / loop for r, loop in zip(self.raw, self.loops)]


def setup(cfg_path: Path, mods=None) -> Context:
    """Import (unless mods is given), load the scenario, build the simulator."""
    if mods is None:
        mods = import_package()
    scenario, cfg = mods.io.load_scenario(cfg_path)
    sim = mods.channel.FrameSimulator(scenario)
    return Context(mods, scenario, cfg, sim, cfg_path, WORKDIR)


def _close(got, want, rtol, atol) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w, rtol, atol) for g, w in zip(got, want)))
    if isinstance(want, int):
        return got == want
    return math.isclose(got, want, rel_tol=rtol, abs_tol=atol)


class Checker:
    """Counts output checks: stored values, invariants and run-to-run identity."""

    def __init__(self, expected, rtol, atol):
        self.expected = expected
        self.rtol, self.atol = rtol, atol
        self.digest = None
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if name not in self.failures:
                self.failures.append(name)

    def check(self, outcome):
        for name, ok in outcome.checks:
            self.add(name, ok)
        for key, want in (self.expected or {}).items():
            got = outcome.values.get(key)
            self.add(f"expected {key}", got is not None and _close(got, want, self.rtol, self.atol))
        if self.digest is None:
            self.digest = outcome.digest
        else:
            self.add("outputs identical to the first iteration", outcome.digest == self.digest)


def measure(workload, seconds, checker):
    """Closed loop for `seconds`: (Timings of the iterations, summed file counts)."""
    timings, counts = Timings(), {}
    start = perf_counter()
    while not timings.raw or perf_counter() - start < seconds:
        outcome = workload.outcome(timings.time(workload.run))
        checker.check(outcome)
        for key, value in outcome.counts.items():
            counts[key] = counts.get(key, 0) + value
    return timings, counts


def blas_info():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown"),
            "threads": None}
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else ():
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(seed):
    return {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_info(), "git_sha": git_sha()}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store this seed's outputs in expected.json and exit")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        p.error("--seed must be an unsigned 64-bit integer")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "obfusense" / "__init__.py").is_file():
        print(f"perfbench: no obfusense sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    try:
        return _run(args)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)


def _run(args) -> int:
    cfg_path = WORKDIR / "scenario.cfg"
    cfg_path.write_text(CONFIG.format(seed=args.seed))
    setups = Timings()
    for _ in range(SETUP_REPS):
        ctx = setups.time(setup, cfg_path)
    workload = WORKLOADS[args.workload](ctx)

    doc = json.loads(EXPECTED.read_text())
    stored = doc["seeds"].get(str(args.seed), {}).get(args.workload)
    checker = Checker(stored, doc["rtol"], doc["atol"])
    warm = workload.outcome(workload.run())
    if args.record:
        doc["seeds"].setdefault(str(args.seed), {})[args.workload] = warm.values
        EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(json.dumps(warm.values))
        return 0
    checker.check(warm)

    info = {"workload": args.workload, "trace": args.trace, "env": environment(args.seed),
            "expected": "stored" if stored else "run-to-run identity only",
            "raw_setup_s": statistics.median(setups.raw)}
    if not args.trace:
        timings, _ = measure(workload, args.seconds, checker)
        walls = timings.calibrated
        median = statistics.median(walls)
        metrics = {
            "setup_s": {"value": statistics.median(setups.calibrated), "unit": "s"},
            "wall_s": {"value": median, "unit": "s"},
            "frames_per_s": {"value": workload.frames / median, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        # a tail percentile of 30-60 samples moves by 0.1-0.15 from run to
        # run on a shared host, too much for a bound, so it is only printed
        info.update({"samples": len(walls), "wall_p75_s": float(np.percentile(walls, 75)),
                     "raw_wall_s": statistics.median(timings.raw),
                     "loop_s": statistics.median(timings.loops)})
    else:
        untraced, _ = measure(workload, args.seconds / 2, checker)
        sessions, observe = session_counter(ctx.scenario, ctx.cfg.update_rate)
        tracer = Tracer(ctx.mods, on_session=observe)
        tracer.install()
        try:
            for _ in range(TRACED_SETUP_REPS):
                setup(cfg_path, ctx.mods)
            build_durations = list(tracer.build_durations)
            tracer.reset()
            traced, file_counts = measure(workload, args.seconds / 2, checker)
            build_durations += tracer.build_durations
        finally:
            tracer.uninstall()
        n = len(traced.raw)
        metrics = per_layer_metrics(tracer, sessions, file_counts, n, build_durations,
                                    traced.scale, untraced.calibrated, traced.calibrated)
        checker.add("session frames = frames from input durations",
                    sum(s["frames"] for s in sessions) == n * workload.frames)
        gap = unattributed_share(tracer, sum(traced.raw))
        checker.add(f"unattributed share of traced wall within [0, {ACCOUNTING_TOLERANCE}]",
                    -1e-9 <= gap <= ACCOUNTING_TOLERANCE)
        info.update({"samples": {"untraced": len(untraced.raw), "traced": n},
                     "missing_targets": tracer.missing, "unattributed_share": gap})
    info.update({"failed_fraction": checker.failed / checker.attempted,
                 "failures": checker.failures[:10], "digest": checker.digest})
    print("perfbench: " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
