"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pure_sweep --seed 1 --seconds 30 --trace 0

Start it from the root of a checkout.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  Lines before it, all starting with "#", give
the environment, the tail percentile with its sample count, the failure
ratio and a per-op breakdown.
"""

import time

START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("cli_cold", "pure_sweep", "dense_lossy")
# Extra set-ups in fresh interpreters, this many before the timed phase and
# as many after it, so a slow spell of the host moves few of them; setup_s is
# the median of all and the run's own.
SETUP_REPEATS = 4
PROBE_REPEATS = 5  # fresh interpreters per import-time probe in the traced run
TAIL_ABOVE = 10  # the tail percentile keeps at least this many samples above it


@dataclass
class Context:
    work_dir: Path
    child_env: dict
    in_process: bool


@dataclass
class OpStats:
    latencies: list = field(default_factory=list)
    failed: int = 0
    first_error: str | None = None
    first_error_known: bool = False


@dataclass
class Tally:
    latencies: list = field(default_factory=list)  # seconds, every attempted op
    ok_latencies: list = field(default_factory=list)  # seconds, ops that succeeded
    per_op: dict = field(default_factory=dict)  # op name -> OpStats
    unexpected: list = field(default_factory=list)
    round_rates: list = field(default_factory=list)  # ok ops per busy second, per round

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ok(self) -> int:
        return len(self.ok_latencies)

    def ops_per_s(self) -> float:
        """Median over rounds, so a burst of load from outside the process
        moves one round, not the result."""
        return statistics.median(self.round_rates)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def configure_environment(root: Path) -> dict:
    """Cap BLAS threads at nproc, leave NOON_COHERENCE_THREADS unset, and put
    the checkout's src on the path of this process and of its children."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    inherited = os.environ.pop("NOON_COHERENCE_THREADS", None)
    src = str(root / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {"nproc": nproc, "noon_coherence_threads_inherited": inherited}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "noon_coherence" / "__init__.py").is_file():
        return fail("no src/noon_coherence here; run from the root of a checkout")
    if not spec_path.is_file():
        return fail("no BENCHMARK.json here; run from the root of a checkout")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    spec = json.loads(spec_path.read_text())
    env_info = configure_environment(root)
    work_root = root / ".perfbench_work"
    work_dir = work_root / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, spec, env_info, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it


def run(args, spec: dict, env_info: dict, work_dir: Path) -> int:
    import importlib

    ctx = Context(work_dir, dict(os.environ), in_process=args.workload != "cli_cold" or args.trace == 1)
    tracer = None
    if args.trace:
        from tracer import Tracer

        import noon_coherence  # noqa: F401  the tracer needs the modules loaded

        tracer = Tracer()
        tracer.install()  # set-up calls (state factories) are traced too
    workload = importlib.import_module(args.workload)
    make_round = workload.setup(args.seed, ctx)
    setup_s = time.perf_counter() - START
    if tracer:
        tracer.uninstall()
        tracer.flush()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from environment import describe

    env = describe(args, env_info)
    print("# env " + json.dumps(env, sort_keys=True))
    warm_up(args.workload, make_round, ctx)
    if args.trace:
        return traced_run(args, spec, make_round, workload.TRACED_ROUNDS, tracer, ctx)
    setups = [setup_s] + [setup_in_child(args, ctx) for _ in range(SETUP_REPEATS)]
    tally, rounds = timed_phase(make_round, args.seconds)
    if args.workload == "cli_cold":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups += [setup_in_child(args, ctx) for _ in range(SETUP_REPEATS)]
    busy = sum(tally.latencies)
    # Failed ops are left out: one that fails fast must not lower the latency.
    lat_ms = sorted(1000.0 * x for x in tally.ok_latencies)
    if not lat_ms:
        report_ops(tally)
        return fail("no op succeeded")
    tail, tail_pct = tail_latency(lat_ms)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": tally.ops_per_s(),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    print(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"# op_tail_ms is p{tail_pct:.2f} of {len(lat_ms)} successful ops ({TAIL_ABOVE} above it)")
    print(f"# rounds={rounds} busy_s={busy:.3f} fail_ratio={(tally.attempted - tally.ok) / tally.attempted:.4f}")
    print(f"# ops_per_s by round: {', '.join(f'{x:.4f}' for x in tally.round_rates)}")
    report_ops(tally)
    return emit(spec["end_to_end"], values, tally)


def warm_up(workload: str, make_round, ctx: Context) -> None:
    """Fill caches before timing: byte-code files, the page cache, lazy imports."""
    if workload == "cli_cold" and not ctx.in_process:
        subprocess.run([sys.executable, "-c", "import noon_coherence.cli"], env=ctx.child_env, check=True, timeout=120)
        return
    results = {}
    for op in make_round(0):
        execute(op, results)


def setup_in_child(args, ctx: Context) -> float:
    argv = [sys.executable, sys.argv[0], "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(argv, env=ctx.child_env, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def execute(op, results: dict):
    """Run one op; return (latency in seconds, error or None)."""
    from common import CheckFailed  # imports numpy, so only after the BLAS caps are set

    start = time.perf_counter()
    try:
        out = op.run(results)
    except Exception as exc:  # an op that raises is a failed request, not a crash
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    results[op.name] = out
    try:
        op.check(out)
    except CheckFailed as exc:
        return latency, f"check: {exc}"
    except Exception as exc:  # unreadable output is a failed check
        return latency, f"check raised {type(exc).__name__}: {exc}"
    return latency, None


def run_round(ops, tally: Tally, on_op=None) -> None:
    results = {}
    ok, busy = tally.ok, sum(tally.latencies)
    for op in ops:
        latency, error = execute(op, results)
        if on_op:
            on_op()
        tally.latencies.append(latency)
        stats = tally.per_op.setdefault(op.name, OpStats())
        stats.latencies.append(latency)
        if error is None:
            tally.ok_latencies.append(latency)
            continue
        known = op.known_defect is not None and op.known_defect.explains(error)
        stats.failed += 1
        if stats.first_error is None:
            stats.first_error, stats.first_error_known = error, known
        if not known:
            tally.unexpected.append(f"{op.name}: {error}")
    tally.round_rates.append((tally.ok - ok) / (sum(tally.latencies) - busy))


def timed_phase(make_round, seconds: float, first_round: int = 1) -> tuple[Tally, int]:
    """Closed loop, whole rounds; another round starts only while the phase
    would end nearer to ``seconds`` with it than without it."""
    tally = Tally()
    start = time.perf_counter()
    rounds = 0
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if rounds and elapsed + last / 2 >= seconds:
            break
        begin = time.perf_counter()
        run_round(make_round(first_round + rounds), tally)
        last = time.perf_counter() - begin
        rounds += 1
    return tally, rounds


def tail_latency(lat_ms: list) -> tuple[float, float]:
    """Highest percentile with at least TAIL_ABOVE samples above it."""
    n = len(lat_ms)
    if n <= TAIL_ABOVE:
        return lat_ms[-1], 100.0
    return lat_ms[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n


def report_ops(tally: Tally) -> None:
    from common import CN_BREACHES

    print("# op                                              attempted failed  median_ms  first error")
    for name, stats in tally.per_op.items():
        note = ""
        if stats.first_error:
            note = f"  {stats.first_error[:120]}" + (" [known defect]" if stats.first_error_known else "")
        median_ms = 1000 * statistics.median(stats.latencies)
        print(f"# {name:48s} {len(stats.latencies):9d} {stats.failed:6d} {median_ms:10.2f}{note}")
    if CN_BREACHES.checked:
        print(f"# {CN_BREACHES.report()}")


def emit(metric_specs: list, values: dict, tally: Tally) -> int:
    for message in tally.unexpected[:20]:
        print(f"# UNEXPECTED FAILURE {message[:300]}")
    metrics = {}
    for metric in metric_specs:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"# {metric['name']:<52s} {value:>16.6g} {metric['unit']}")
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.attempted - tally.ok,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def traced_run(args, spec: dict, make_round, traced_rounds: int, tracer, ctx: Context) -> int:
    """Untraced rounds for half the time, then a fixed number of traced
    rounds, so call counts repeat exactly from run to run."""
    plain, _ = timed_phase(make_round, args.seconds / 2)
    traced = Tally()
    tracer.install()
    try:
        for r in range(traced_rounds):
            run_round(make_round(r), traced, on_op=tracer.flush)
    finally:
        tracer.uninstall()
    values = {
        "trace.ops_per_s_untraced": plain.ops_per_s(),
        "trace.ops_per_s_traced": traced.ops_per_s(),
    }
    values["trace.overhead_ratio"] = values["trace.ops_per_s_untraced"] / values["trace.ops_per_s_traced"]
    values["fock.dense_bytes"] = tracer.dense_bytes
    values.update(import_probes(ctx))
    for metric in spec["per_layer"]:
        if metric["name"] not in values:
            value = tracer.value(metric["name"])
            if value is None:
                return fail(f"no way to measure per-layer metric {metric['name']}")
            values[metric["name"]] = value
    print("# layer function                                      calls   failed       busy_s")
    for name in sorted(tracer.calls, key=lambda k: -tracer.busy[k]):
        print(f"# {name:50s} {tracer.calls[name]:8d} {tracer.failed[name]:8d} {tracer.busy[name]:12.6f}")
    print(f"# tracing overhead: untraced/traced ops_per_s = {values['trace.overhead_ratio']:.3f}")
    report_ops(traced)
    return emit(spec["per_layer"], values, traced)


def import_probes(ctx: Context) -> dict:
    """Interpreter start, a fresh import of the CLI, and scipy.special's share of it."""
    def child(argv):
        return subprocess.run([sys.executable, *argv], env=ctx.child_env, capture_output=True,
                              text=True, check=True, timeout=120)

    def wall(argv):
        begin = time.perf_counter()
        child(argv)
        return time.perf_counter() - begin

    timed_import = "import time; t = time.perf_counter(); import noon_coherence.cli; print(time.perf_counter() - t)"
    start = [wall(["-c", "pass"]) for _ in range(PROBE_REPEATS)]
    imports = [float(child(["-c", timed_import]).stdout) for _ in range(PROBE_REPEATS)]
    scipy = [scipy_special_import(child(["-X", "importtime", "-c", "import noon_coherence.cli"]).stderr)
             for _ in range(PROBE_REPEATS)]
    return {
        "cli.python_start_s": statistics.median(start),
        "cli.import_s": statistics.median(imports),
        "cli.import_scipy_s": statistics.median(scipy),
    }


def scipy_special_import(importtime: str) -> float:
    """Cumulative seconds of scipy.special in -X importtime output; 0 if not imported."""
    for line in importtime.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.special":
            return int(parts[1]) / 1e6
    return 0.0


if __name__ == "__main__":
    sys.exit(main())
