"""jsccsim benchmark: trials per second of one experiment kind, measured from
outside the package.  Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one ``harness.run`` of a config followed by
``harness.emit`` of its record, as the CLI does.  A round runs every config
of the workload once, with seeds derived from --seed and the round number.
The first round warms up; the timed rounds then repeat until --seconds have
passed.

Times are reported at a fixed reference speed: the calibration kernels of
calibration.py run right before and after each timed operation, and the
operation's wall time is divided by their mean slowdown, weighted by the
workload's vector_share.  The raw median rate goes to stderr.

With --trace 0 the last line of stdout is the result JSON with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a traced
run whose length is fixed by --seconds, and the spans are written to
perfbench/out/.
"""

import time

T_START = time.perf_counter()  # set-up probes time the imports from here

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 3
CAL_PROBES = 5
SETUP_VECTOR_SHARE = 0.25
PROBE_TIMEOUT_S = 60


def import_package():
    """Put the checkout's src/ on the path; the checkout is the working directory."""
    src = Path.cwd() / "src"
    if not (src / "jsccsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no jsccsim source tree under {src}; "
                         "run from the repository root")
    sys.path.insert(0, str(src))


def op_seed(seed: int, rnd: int, i: int) -> int:
    return (seed << 32) | (rnd << 8) | i


class Run:
    """Operations, checks and timings of one benchmark run."""

    def __init__(self, workload, seed: int):
        import checks
        import workloads

        self.wl = workload
        self.seed = seed
        self.refs = [workloads.reference(cfg) for cfg in workload.configs]
        self.pools = [checks.Pools() for _ in workload.configs]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rates: list[float] = []
        self.raw_rates: list[float] = []
        self.paused = None  # context manager that suspends tracing

    def check_setup(self, inputs):
        import workloads

        for got, ref in zip(inputs, self.refs):
            self.failures += workloads.check_setup(got, ref)

    def round(self, rnd: int, timed: bool = True):
        """Run every config once.  A timed round records its rate, with each
        operation's time scaled to the reference speed."""
        import checks
        from jsccsim import harness

        trials, seconds, scaled = 0, 0.0, 0.0
        for i, (base, ref) in enumerate(zip(self.wl.configs, self.refs)):
            cfg = dict(base, seed=op_seed(self.seed, rnd, i))
            self.attempted += 1
            try:
                f0 = calibration.speed_factor(self.wl.vector_share) if timed else 1.0
                t0 = time.perf_counter()
                rec = harness.run(cfg, workers=self.wl.workers)
                text = harness.emit([rec])
                dt = time.perf_counter() - t0
                f1 = calibration.speed_factor(self.wl.vector_share) if timed else 1.0
            except Exception:
                self.failed += 1
                traceback.print_exc()
                continue
            trials += cfg["trials"]
            seconds += dt
            scaled += dt / (0.5 * (f0 + f1))
            emitted = json.loads(text)[0]
            self.failures += checks.check_record(emitted, cfg, ref)
            self.pools[i].add(emitted)
            if self.wl.workers > 1 and rnd == 0:
                with self.paused() if self.paused else contextlib.nullcontext():
                    serial = harness.run(dict(cfg), workers=1)
                self.failures += checks.check_same_record(
                    rec.stripped(), serial.stripped(), self.wl.workers)
        if timed and seconds > 0:
            self.raw_rates.append(trials / seconds)
            self.rates.append(trials / scaled)

    def finish(self):
        import checks

        for pools, cfg, ref in zip(self.pools, self.wl.configs, self.refs):
            if pools.by_metric:
                self.failures += checks.check_pooled(pools, cfg, ref)


def setup_probe(name: str):
    """Child process: import the package, build one workload's inputs, print
    the elapsed time since interpreter start-up finished."""
    import_package()
    import workloads

    workloads.setup_all(workloads.WORKLOADS[name])
    elapsed = time.perf_counter() - T_START
    print(repr(elapsed / calibration.speed_factor(SETUP_VECTOR_SHARE, CAL_PROBES)))


def measure_setup(name: str) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe", name],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up probe for {name} failed")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def timed(workload, seed: int, seconds: float):
    import workloads

    setup_s = measure_setup(workload.name)
    run = Run(workload, seed)
    run.check_setup(workloads.setup_all(workload))
    run.round(0, timed=False)  # warm-up: checked and counted, not timed
    start = time.perf_counter()
    rnd = 1
    while True:
        run.round(rnd)
        rnd += 1
        if time.perf_counter() - start >= seconds:
            break
    run.finish()
    if not run.rates:
        raise SystemExit("perfbench: every operation failed")
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return run, {
        "trials_per_s": {"value": statistics.median(run.rates), "unit": "trials/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
    }


def traced(workload, seed: int, seconds: float):
    import tracing
    import workloads

    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        run = Run(workload, seed)
        run.paused = inst.paused
        run.check_setup(workloads.setup_all(workload))
        # a fixed number of rounds, so that counts repeat exactly for a seed
        for rnd in range(max(1, round(seconds / workload.round_s))):
            run.round(rnd)
    finally:
        inst.remove()
    run.finish()
    if not run.rates:
        raise SystemExit("perfbench: every operation failed")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.json.gz",
                 workload=workload.name, seed=seed, seconds=seconds)
    values = tracing.layer_metrics(tracer)
    values["trace.trials_per_s"] = statistics.median(run.rates)
    return run, {name: {"value": v, "unit": tracing.unit_of(name)}
                 for name, v in values.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if not 0 <= args.seed < 2 ** 31:
        p.error("--seed must be in [0, 2^31)")
    wl = workloads.WORKLOADS[args.workload]
    run, metrics = (traced if args.trace else timed)(wl, args.seed, args.seconds)
    for msg in run.failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"perfbench: raw median {statistics.median(run.raw_rates):.6g} trials/s of "
          f"wall time; {statistics.median(run.rates):.6g} at reference speed",
          file=sys.stderr)
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
