"""Benchmark of the ancilla reduction, run through the `pseudomode run` CLI.

Usage (from the repository root):

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: a pass runs the workload's
scenario list through `pseudomode.cli.main` in this process, the next pass
starts when it ends, and passes repeat until S seconds have gone by. Every
output is checked against the closed form in reference.py. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics` (end-to-end metrics with --trace 0, per-layer ones with
--trace 1). See README.md in this directory.
"""

import os

# One BLAS thread per process: with nproc ensemble workers the load then
# never exceeds nproc threads. Must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 9  # timed fresh-interpreter set-ups per run, after one warm-up


def _error(msg: str) -> int:
    print(f"benchmark: {msg}", file=sys.stderr)
    return 2


def _host_facts(nproc: int) -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return (f"host: nproc={nproc} python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas_name} blas_threads={os.environ['OPENBLAS_NUM_THREADS']} "
            f"PSEUDOMODE_NUM_THREADS={os.environ['PSEUDOMODE_NUM_THREADS']}")


def _probe_seconds(configs: list[Path]) -> float:
    """Wall time of a fresh interpreter importing pseudomode and parsing configs."""
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), *map(str, configs)]
    t0 = time.perf_counter()
    # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms, which
    # quantizes the measurement.
    subprocess.run(cmd, check=True, cwd=ROOT)
    return time.perf_counter() - t0


class Runner:
    """Runs passes of one workload's scenarios through the CLI and checks them."""

    def __init__(self, cli, check_output, scenarios, out: Path):
        self.cli = cli
        self.check_output = check_output
        self.scenarios = scenarios
        self.out = out

    def run_pass(self, order: list[int], extra: list[str]) -> tuple[float, int, int]:
        """(wall seconds of the CLI calls, failed scenarios, wrong outputs) for one pass.

        A scenario fails when the CLI exits non-zero or raises, or when its
        output fails the check; the last case also counts as a wrong output.
        """
        chosen = [self.scenarios[i] for i in order]
        for s in chosen:
            (self.out / s.doc["output"]).unlink(missing_ok=True)
        codes = []
        t0 = time.perf_counter()
        for s in chosen:
            try:
                codes.append(self.cli.main(
                    ["run", str(s.path), "--out", str(self.out), "--quiet", *extra]))
            except Exception as exc:  # a crash fails the scenario, not the benchmark
                codes.append(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        failed = wrong = 0
        for s, code in zip(chosen, codes):
            problem = None
            if code != 0:
                problem = f"exit {code}"
            else:
                try:
                    self.check_output(s.doc, self.out / s.doc["output"])
                except (AssertionError, OSError, ValueError) as exc:
                    problem = str(exc)
                    wrong += 1
            if problem:
                failed += 1
                print(f"benchmark: {s.path.name} failed: {problem}", file=sys.stderr)
        return elapsed, failed, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pseudomode" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        return _error(f"no pseudomode sources under {src} or no configs/ next to them")
    nproc = len(os.sched_getaffinity(0))
    os.environ["PSEUDOMODE_NUM_THREADS"] = str(nproc)
    sys.path.insert(0, str(src))

    from pseudomode import cli
    from reference import check_output
    from tracing import LAYER_METRICS, Tracer, layer_metrics
    from workloads import WORKLOADS, pass_order, pass_seed, scenarios

    if not Path(cli.__file__).resolve().is_relative_to(src):
        return _error(f"imported pseudomode from {cli.__file__}, not from {src}")
    if args.workload not in WORKLOADS:
        return _error(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")

    work = BENCH_DIR / "results" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "csv").mkdir(parents=True)
    scens = scenarios(args.workload, ROOT, work)
    ensemble = args.workload == "jump_ensemble"
    runner = Runner(cli, check_output, scens, work / "csv")
    traced = bool(args.trace)
    if ensemble and traced:
        # Traced at one worker so that every span is recorded in this process.
        os.environ["PSEUDOMODE_NUM_THREADS"] = "1"
    print(_host_facts(nproc))

    configs = [s.path for s in scens]
    if not traced:
        _probe_seconds(configs)  # warms the file cache and writes bytecode

    tracer = Tracer()
    plain_times, traced_times, probe_times = [], [], []
    attempted = failed = wrong = 0
    first_csv = None
    start = time.perf_counter()
    deadline = start + args.seconds
    index = 0
    while True:
        order = pass_order(args.seed, index, len(scens))
        extra = ["--seed", str(pass_seed(args.seed, index))] if ensemble else []
        elapsed, bad, off = runner.run_pass(order, extra)
        plain_times.append(elapsed)
        attempted, failed, wrong = attempted + len(order), failed + bad, wrong + off
        if ensemble and index == 0 and bad == 0:
            first_csv = (runner.out / scens[0].doc["output"]).read_bytes()
        if traced:
            elapsed, bad, off = tracer.run_traced(lambda: runner.run_pass(order, extra))
            traced_times.append(elapsed)
            attempted, failed, wrong = attempted + len(order), failed + bad, wrong + off
        index += 1
        now = time.perf_counter()
        # Set-up probes are spread over the run, so that their median sees the
        # same host conditions as the passes.
        while not traced and len(probe_times) < min(
                SETUP_PROBES, SETUP_PROBES * (now - start) / args.seconds):
            probe_times.append(_probe_seconds(configs))
        if now >= deadline:
            break
    while not traced and len(probe_times) < SETUP_PROBES:
        probe_times.append(_probe_seconds(configs))

    if ensemble:
        # The documented bit identity: one seed at 1 worker and at nproc
        # workers must write the same bytes.
        workers = os.environ["PSEUDOMODE_NUM_THREADS"]
        os.environ["PSEUDOMODE_NUM_THREADS"] = str(nproc) if traced else "1"
        _, bad, off = runner.run_pass([0], ["--seed", str(pass_seed(args.seed, 0))])
        os.environ["PSEUDOMODE_NUM_THREADS"] = workers
        attempted += 1
        if first_csv is not None and bad == 0 and (
                runner.out / scens[0].doc["output"]).read_bytes() != first_csv:
            bad = off = 1
            print("benchmark: ensemble CSV differs between 1 and "
                  f"{nproc} workers for seed {pass_seed(args.seed, 0)}", file=sys.stderr)
        failed, wrong = failed + bad, wrong + off

    # The fastest pass: on a shared host, interpreter-bound passes slow down
    # by up to 1.6x for seconds at a time, which moves the median between
    # runs far more than the program's own variation.
    pass_s = min(plain_times)
    print(f"workload {args.workload}: {len(plain_times)} passes of {len(scens)} scenarios, "
          f"pass_s fastest {pass_s:.4f} s, median {statistics.median(plain_times):.4f} s, "
          f"attempted {attempted}, failed {failed}")
    if traced:
        # Each traced pass runs right after its untraced twin, so their ratio
        # sees the same host conditions.
        overhead_pct = 100.0 * (statistics.median(
            t / p for t, p in zip(traced_times, plain_times)) - 1.0)
        print(f"tracing overhead: {overhead_pct:+.1f}% (median over {len(traced_times)} "
              "traced passes of traced / untraced pass time)")
        tracer.save(work / "trace.npz")
        values = layer_metrics(tracer.summary(), overhead_pct)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    else:
        rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "setup_s": {"value": statistics.median(probe_times), "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mib": {"value": rss_kib / 1024.0, "unit": "MiB"},
        }
        if ensemble:
            n_traj = scens[0].doc["trajectories"]["n_traj"]
            print(f"traj_per_s {n_traj / pass_s:.2f} 1/s in the fastest pass, "
                  f"{nproc} workers")
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = result | {"pass_times_s": plain_times, "traced_pass_times_s": traced_times,
                       "setup_times_s": probe_times}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
