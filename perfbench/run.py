"""Run one qnet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload spectral_dynamics --seed 1 --seconds 50 --trace 0

Run from the root of a qnet checkout; the package is imported from ./src.
The workload's inputs are made from the seed and written as edge-list files
under ./.perfbench_work (removed on exit). Every operation goes through
qnet.cli.main in this process, with --output so that payload emission is
timed too. A warm-up pass comes first; then whole passes over the operation
list repeat while the next one is expected to end within --seconds. Every
pass is checked.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced passes and prints the per-layer metrics: the
traced passes wrap every public qnet function from outside the program (see
tracing.py). The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

SETUP_REPEATS = 5
IMPORT_CODE = "import qnet.cli"
# One BLAS thread: the program's hot spots are Python loops and memory
# traffic, and on a small shared machine a second BLAS thread brought no speed.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["spectral_dynamics", "montecarlo_cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_import(src: str, root: str) -> float:
    """Wall time of a fresh interpreter that imports qnet.cli."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_CODE], env=child_env(src), cwd=root,
                   check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


class Runner:
    """Runs passes over one workload's operations and checks their outputs."""

    def __init__(self, ops, cli_module):
        self.ops = ops
        self.cli = cli_module
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._reported: set[str] = set()

    def run_pass(self, tracer=None, selftest: bool = False):
        for op in self.ops:
            for path in op.outputs:
                if os.path.exists(path):
                    os.remove(path)
        raw, times = [], []
        t_pass = time.perf_counter()
        for op in self.ops:
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.begin_operation()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    rc, error = self.cli.main(list(op.argv)), None
                except Exception as exc:  # counted as a failed operation
                    rc, error = None, f"{type(exc).__name__}: {exc}"
                    err.write(traceback.format_exc())
                times.append(time.perf_counter() - t0)
            raw.append((rc, error, err.getvalue()))
        wall = time.perf_counter() - t_pass
        bytes_out = sum(os.path.getsize(p) for op in self.ops for p in op.outputs
                        if os.path.exists(p))
        self.check(raw, selftest)
        return wall, times, bytes_out

    def check(self, raw, selftest: bool = False) -> None:
        from workloads import CheckFailed
        done = {}
        for op, (rc, error, stderr) in zip(self.ops, raw):
            self.attempted += 1
            try:
                r = op.load(rc, error, stderr)
            except Exception as exc:
                self.problem(op.name, f"output unreadable: {exc!r}")
                continue
            if op.failed(r):
                self.failed += 1
                if op.name not in self._reported:
                    self._reported.add(op.name)
                    reason = error or (stderr.strip().splitlines() or ["?"])[-1]
                    print(f"perfbench: operation {op.name} failed (rc={rc}): {reason}",
                          file=sys.stderr)
            else:
                try:
                    op.check(r, done)
                except CheckFailed as exc:
                    self.problem(op.name, str(exc))
                except Exception as exc:
                    self.problem(op.name, f"check raised {exc!r}")
                done[op.name] = r
            if selftest and (not op.failed(r) or op.expect_rc != 0):
                for perturb in op.perturbations:
                    try:
                        op.check(perturb(r), done)
                    except CheckFailed:
                        continue
                    except Exception as exc:
                        self.problem(op.name, f"self-test {perturb.__name__} raised {exc!r}")
                        continue
                    self.problem(op.name, f"self-test: check accepted {perturb.__name__}")

    def problem(self, name: str, msg: str) -> None:
        self.problems.append(f"{name}: {msg}")
        print(f"perfbench: CHECK FAILED {name}: {msg}", file=sys.stderr)


def median(values):
    return statistics.median(values) if values else 0.0


def run(args, root: str, src: str, workdir: str, spec: dict) -> dict:
    import numpy as np
    import qnet.cli
    import tracing
    import workloads

    index = sorted(workloads.WORKLOADS).index(args.workload)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, index]))
    plan = workloads.Plan(workdir)
    workloads.WORKLOADS[args.workload](plan, rng, args.seed)
    runner = Runner(plan.ops, qnet.cli)

    if args.trace:
        imports = tracing.import_profile([sys.executable, "-X", "importtime", "-c", IMPORT_CODE],
                                         child_env(src), root, SETUP_REPEATS)
    else:
        time_import(src, root)  # unmeasured: fills the bytecode and file caches

    # warm-up: fills caches, computes the references, self-tests every check
    warm, _, _ = runner.run_pass(selftest=True)
    print(f"perfbench: warm-up pass {warm:.3f} s", file=sys.stderr)
    start = time.perf_counter()
    walls, op_times, traced, traced_walls, setup = [], [], [], [], []
    bytes_out = 0
    while True:
        t_cycle = time.perf_counter()
        if not args.trace:
            # set-up samples are spread over the run, one before each pass,
            # so that they meet the same drift in machine speed as the passes
            setup.append(time_import(src, root))
        wall, times, bytes_out = runner.run_pass()
        walls.append(wall)
        op_times.append(times)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                t_wall, t_times, _ = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(t_wall)
            traced.append(tracer.summary(t_wall, sum(t_times)))
        # stop before a further pass would end past --seconds, so that a
        # run's length is bounded whatever the length of its passes
        now = time.perf_counter()
        if now - start + (now - t_cycle) > args.seconds:
            break
    while not args.trace and len(setup) < SETUP_REPEATS:
        setup.append(time_import(src, root))
    print(f"perfbench: {args.workload} seed {args.seed}: {len(walls)} timed passes, "
          f"wall_s {[round(w, 3) for w in walls]}, set-up {[round(x, 3) for x in setup]}",
          file=sys.stderr)
    for op, samples in zip(runner.ops, zip(*op_times)):
        print(f"perfbench:   {op.name} {[round(t, 4) for t in samples]}", file=sys.stderr)

    if args.trace:
        print(tracer.table(), file=sys.stderr)
        values = {k: median([s[k] for s in traced]) for k in traced[0]}
        values.update(imports)
        # the same statistic as wall_s, so the overhead compares like with like
        values["trace.wall_s"] = statistics.fmean(traced_walls)
        values["trace.untraced_wall_s"] = statistics.fmean(walls)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        values["cli.bytes_out"] = bytes_out
        listed = spec["per_layer"]
    else:
        # Pass times are averaged, not their median taken: the machine's speed
        # switches between a fast and a slow regime for seconds at a time, and
        # a median jumps to whichever regime held most passes of the run.
        values = {
            "setup_s": median(setup),
            "wall_s": statistics.fmean(walls),
            "op_median_s": statistics.fmean(median(times) for times in op_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        listed = spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "qnet", "cli.py")) or not os.path.isfile(spec_path):
        print("perfbench: run from the root of a qnet checkout "
              "(needs src/qnet and BENCHMARK.json)", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import qnet
    if not os.path.abspath(qnet.__file__).startswith(src + os.sep):
        print(f"perfbench: imported qnet from {qnet.__file__}, not from ./src", file=sys.stderr)
        return 2
    # a terminated run still removes its inputs: SystemExit runs the finally
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    base = os.path.join(root, ".perfbench_work")
    workdir = os.path.join(base, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = run(args, root, src, workdir, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
