"""moma benchmark: run one workload, check its answers, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Run it from the root of a source tree that holds src/moma and tests/gen.py.
One workload runs in one single-threaded process (BLAS pinned to one
thread) as a closed loop: rounds of its queries back to back, each round
timed, until one more round, as long as the last, would end after
`--seconds`.  Every answer is
checked against an oracle, and every round must repeat the first round's
answers exactly.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`:

* `--trace 0`: wall_s (median round time), setup_s (imports plus the median
  of three input set-ups) and peak_rss_mb.  Both times are seconds at the
  reference host speed of hostclock.py, which samples the host's speed
  while the work runs.
* `--trace 1`: untraced and traced rounds alternate; per-round calls, total
  and self seconds of every traced layer function, the counters read from
  return values, trace.overhead_s, trace.wall_s, trace.coverage,
  code.src_lines, and solve_p50_ms and solve_p99_ms (latency of the
  weighted solves of the untraced rounds).  These are plain wall times:
  the host clock is not started in traced runs.

`--workload all` runs every workload untraced, each in its own process, and
prints one row per workload.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from hostclock import HostClock

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the first numpy import

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ["layered-10k", "oracle-small", "ring-lra", "front-rich"]
SETUP_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "moma").glob("*.py")))


def percentile(samples: list[float], q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def run_all(args) -> int:
    rows = {}
    for name in NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        rows[name] = r = json.loads(lines[-1])
        cells = "  ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in r["metrics"].items())
        print(f"# {name:13s} correct={r['correct']} failed={r['failed']}/{r['attempted']}  {cells}")
        for line in lines[:-1]:
            if line.startswith(("# weighted solves", "# FAIL")):
                print(f"#   {line[2:]}")
    print(json.dumps(rows))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def measure(w, inp, seconds: float, clock, timer, tracer, digest):
    """Closed-loop rounds until one more, as long as the last, would end after
    `seconds`.  With a tracer, untraced and traced rounds alternate, at least
    one of each, and only untraced rounds keep their solve latencies.
    Returns the untraced round times (by the clock, and in wall seconds),
    the traced round times, the digest of every round's answers and the
    first round's answers."""
    plain: list[float] = []
    plain_wall: list[float] = []
    traced: list[float] = []
    digests: list[str] = []
    first = None
    start = clock.read()
    while True:
        use_trace = tracer is not None and len(plain) > len(traced)
        if use_trace:
            tracer.install()
        timer.install()
        solves_before = len(timer.samples)
        r0 = clock.read()
        try:
            out = w.round(inp)
        finally:
            r1 = clock.read()
            timer.uninstall()
            if use_trace:
                tracer.uninstall()
        dt = clock.wall(r0, r1)
        if use_trace:
            traced.append(dt)
            del timer.samples[solves_before:]
        else:
            plain.append(clock.seconds(r0, r1))
            plain_wall.append(dt)
        digests.append(digest(out))
        if first is None:
            first = out
        if tracer is not None and not traced:
            continue
        if clock.wall(start, clock.read()) + dt > seconds:
            return plain, plain_wall, traced, digests, first


def main(argv) -> int:
    args = parse_args(argv)
    if not ((ROOT / "src" / "moma" / "__init__.py").is_file()
            and (ROOT / "tests" / "gen.py").is_file()):
        print(f"error: {ROOT} does not hold src/moma and tests/gen.py", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    clock = HostClock()
    if not args.trace:
        clock.start()
    r0 = clock.read()
    import numpy as np
    import scipy

    from spans import SolveTimer, Tracer, per_layer_metrics
    from workloads import WORKLOADS, digest
    import_s = clock.seconds(r0, clock.read())

    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        w = WORKLOADS[args.workload](work)
        setups = []
        for _ in range(SETUP_REPEATS):
            r0 = clock.read()
            inp = w.setup(args.seed)
            setups.append(clock.seconds(r0, clock.read()))

        timer = SolveTimer()
        tracer = Tracer() if args.trace else None
        plain, plain_wall, traced, digests, first = measure(
            w, inp, args.seconds, clock, timer, tracer, digest)
        clock.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures = w.check(inp, first)
        rounds = len(digests)
        diverged = sum(d != digests[0] for d in digests)
        failed = len(failures) * (rounds - diverged) + w.ops * diverged
        for why in failures:
            print(f"# FAIL {args.workload}: {why}")
        if diverged:
            print(f"# FAIL {args.workload}: {diverged} of {rounds} rounds changed their answers")

        print("# provenance " + json.dumps({
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "workload": args.workload, "seed": args.seed,
            "round_s": [round(t, 4) for t in plain],
            "round_wall_s": [round(t, 4) for t in plain_wall],
            "host_speed": round(clock.speed(), 4),
            "traced_round_s": [round(t, 4) for t in traced],
            "code.src_lines": src_lines()}))
        samples_ms = [1e3 * s for s in timer.samples]
        p50, p99 = statistics.median(samples_ms), percentile(samples_ms, 99)
        print(f"# weighted solves: p50 {p50:.4g} ms, p99 {p99:.4g} ms over {len(samples_ms)}")
        if tracer is None:
            metrics = {
                "wall_s": (statistics.median(plain), "s"),
                "setup_s": (import_s + statistics.median(setups), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            layer, root_s = tracer.metrics(len(traced))
            units = {name: unit for name, unit, _ in per_layer_metrics()}
            metrics = {k: (v, units[k]) for k, v in layer.items()}
            metrics["trace.wall_s"] = (statistics.median(traced), "s")
            metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain_wall),
                                           "s")
            metrics["trace.coverage"] = (root_s / statistics.mean(traced), "ratio")
            metrics["solve_p50_ms"] = (p50, "ms")
            metrics["solve_p99_ms"] = (p99, "ms")
            metrics["code.src_lines"] = (src_lines(), "lines")
        print(json.dumps({"correct": not failures and not diverged,
                          "attempted": w.ops * rounds, "failed": failed,
                          "metrics": {k: {"value": v, "unit": u}
                                      for k, (v, u) in metrics.items()}}))
        return 0
    finally:
        clock.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
