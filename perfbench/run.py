"""powersieve benchmark: closed-loop CLI experiments, end to end and per layer.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 28 --trace 0

One client in one process calls ``powersieve.cli.main`` for each experiment
of the workload's list, the next only after the previous one returned; one
pass over the list is repeated until ``--seconds`` would be exceeded.
Every payload is checked (see ``workloads.py``); a raised exception, a
non-zero exit status or a mismatching payload counts as a failed
experiment and is never retried.

``--trace 0`` reports the end-to-end metrics: ``norm_cpu_s`` (median pass
CPU time), ``setup_s`` (median, over several fresh interpreters, of the CPU
time from process start to first experiment ready) and ``peak_rss_mb``.
Both times are normalised to a reference host speed (see ``calibrate``),
because on a shared virtual machine the speed of the vCPU drifts by a third
within minutes; the raw CPU and wall times are printed alongside.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
``spans.py`` plus ``trace.overhead_s``.  ``--workload all`` runs every
workload in turn, each in its own process.

The program is taken from ``src/`` of the checkout this file sits in; the
run fails without printing a result if it is missing.  The last line of
standard output is the JSON result; the line before it records the
environment.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# Pin BLAS threads before numpy loads: the power iteration's matvecs go
# through OpenBLAS, whose thread count must be fixed and visible.  One
# thread (never more than nproc) also keeps runs steady on a shared host.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# a cache directory from the environment would turn cold and uncached
# experiments into warm ones
os.environ.pop("POWERSIEVE_CACHE_DIR", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(HERE, ".work")
SETUP_SAMPLES = 11


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    return args


def load_program():
    """Import the package from ``src/`` of this checkout, or exit."""
    if not os.path.isfile(os.path.join(SRC, "powersieve", "__init__.py")):
        sys.exit(f"perfbench: no powersieve package under {SRC}")
    sys.path.insert(0, SRC)
    import powersieve

    if os.path.dirname(os.path.dirname(os.path.abspath(powersieve.__file__))) != SRC:
        sys.exit(f"perfbench: imported powersieve from {powersieve.__file__}, not {SRC}")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- environment record ---------------------------------------------------


def _blas():
    """(name and configuration, thread count) of the loaded OpenBLAS, if any."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return get_config().decode(), get_threads()
    return None, None


def _commit():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return None


def _source_digest():
    """sha256 over src/ (paths and bytes); identifies the code without git."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(args):
    import numpy

    blas, threads = _blas()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_threads_pinned": BLAS_THREADS,
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


# -- host speed -----------------------------------------------------------
#
# On a shared virtual machine the vCPU runs at a speed that depends on the
# other guests: the CPU time of one fixed loop moved between 0.12 s and
# 0.24 s wall, and between 6.5 ms and 12 ms CPU, within minutes, and whole
# passes moved with it.  CPU time removes the time the hypervisor hands to
# other guests, but not the slowdown while the vCPU runs.  So a fixed
# kernel that does not touch powersieve is timed between the experiments,
# and the CPU time between two kernel runs is scaled by CAL_REF_S / (their
# mean CPU time): the seconds it would have taken on a host that runs the
# kernel in CAL_REF_S.  The kernel mixes the two kinds of work the
# workloads do, interpreted Python and single-threaded BLAS; a mix tracked
# the passes of the scan, sieve and charsums workloads better than either
# half alone.  It allocates nothing the cyclic collector tracks, so the
# program's heap does not slow it.

CAL_ITERATIONS = 50_000      # Python half
CAL_MATVECS = 250            # BLAS half, on a fixed 384 x 384 matrix
CAL_REF_S = 0.0125    # a fixed scale: about the kernel's CPU time on a 2-vCPU Xeon VM
CAL_EVERY_S = 0.1     # CPU seconds of experiments between kernel timings
_cal_matrix = []


def calibrate():
    """CPU seconds of one run of the calibration kernel."""
    import numpy as np

    if not _cal_matrix:
        _cal_matrix.append(np.random.default_rng(0).standard_normal((384, 384)))
    matrix = _cal_matrix[0]
    start = time.process_time()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    v = np.ones(len(matrix))
    for _ in range(CAL_MATVECS):
        v = matrix @ v
        v /= np.abs(v).max()
    return time.process_time() - start


def normalised(cpu, cals):
    """``cpu`` seconds scaled to the reference host speed."""
    return cpu * CAL_REF_S / statistics.fmean(cals)


# -- set-up ---------------------------------------------------------------


def set_up(name, seed, warm_dir):
    import workloads

    fx = workloads.load_fixtures()
    return fx, workloads.prepare(name, seed, fx, warm_dir)


def time_setup(args):
    """(CPU, wall) seconds from spawning a fresh interpreter to its first
    experiment ready; the interpreter reports its own CPU time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        status = proc.wait(timeout=120)
    word, _, cpu = line.partition(" ")
    if word != "ready" or status != 0:
        raise RuntimeError(f"set-up probe failed (exit {status}): {line!r}")
    return float(cpu), elapsed


# -- passes ---------------------------------------------------------------


def timed_pass(exps, tracer=None):
    """Run the experiment list once.

    Returns (CPU seconds, normalised CPU seconds, wall seconds, outcomes).
    The calibration kernel runs, outside the timed spans, before the first
    experiment, after the last, and after each experiment that ends at
    least CAL_EVERY_S of CPU time after its previous run; the CPU time
    between two kernel runs is normalised by their mean.

    Each experiment starts with the garbage of the previous one collected,
    as if it ran in a fresh process, and outside the timed span.  Without
    this, a reference cycle that holds a large result (a ``CharacterTable``
    stays alive through a closure until the cyclic collector runs) is freed
    at a point that shifts with allocation counts, which made peak memory
    and pass time bimodal across seeds.
    """
    import workloads

    outcomes = []
    cpu = norm = wall = segment = 0.0
    cal = calibrate()
    for i, exp in enumerate(exps):
        gc.collect()
        cpu_start, start = time.process_time(), time.perf_counter()
        if tracer is not None:
            tracer.enter("cli")
        try:
            outcomes.append(workloads.invoke(exp.argv))
        except Exception as exc:  # counted as a failed experiment, never retried
            outcomes.append(exc)
        finally:
            if tracer is not None:
                tracer.leave()
        wall += time.perf_counter() - start
        segment += time.process_time() - cpu_start
        if segment >= CAL_EVERY_S or i == len(exps) - 1:
            next_cal = calibrate()
            cpu += segment
            norm += normalised(segment, (cal, next_cal))
            cal, segment = next_cal, 0.0
    return cpu, norm, wall, outcomes


class Verifier:
    """Checks pass outcomes; a payload equal to the first pass's inherits its verdict."""

    def __init__(self, fx):
        self.fx = fx
        self.first = {}      # key -> (canonical payload text, problems)
        self.attempted = 0
        self.failures = []   # (key, message)

    def verify(self, exps, outcomes, traced=False):
        import workloads

        earlier = {}
        for exp, outcome in zip(exps, outcomes):
            self.attempted += 1
            problems = self._problems(workloads, exp, outcome, earlier, traced)
            if problems:
                self.failures.append((exp.key, "; ".join(problems[:3])))

    def _problems(self, workloads, exp, outcome, earlier, traced):
        if isinstance(outcome, Exception):
            return [f"raised {type(outcome).__name__}: {outcome}"]
        status, out, err = outcome
        if status != 0:
            return [f"exit status {status}: {err.strip()[-300:]}"]
        try:
            doc = json.loads(out)
            doc.pop("header")
        except (ValueError, KeyError, AttributeError) as exc:
            return [f"unreadable report: {exc}"]
        earlier[exp.key] = doc
        text = json.dumps(doc, sort_keys=True)
        if exp.key in self.first:
            first_text, first_problems = self.first[exp.key]
            if text == first_text:
                return first_problems
            if traced:
                return ["traced payload differs from the untraced one"]
        try:
            problems = workloads.check_payload(exp, doc, earlier, self.fx)
        except Exception as exc:  # a malformed payload is a failed experiment
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.first.setdefault(exp.key, (text, problems))
        return problems


def run_workload(args, work):
    """Set up, loop passes for ``args.seconds``, verify; returns the result."""
    import spans

    setup, setup_cals = [], [calibrate()]
    for _ in range(0 if args.trace else SETUP_SAMPLES):
        setup.append(time_setup(args))
        setup_cals.append(calibrate())
    setup_norm = [normalised(cpu, setup_cals[i:i + 2]) for i, (cpu, _) in enumerate(setup)]
    fx, experiments = set_up(args.workload, args.seed, os.path.join(work, "warm"))
    verifier = Verifier(fx)

    cpus = {False: [], True: []}
    walls = {False: [], True: []}
    norms = []
    layers = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        pass_started = time.perf_counter()
        pass_dir = tempfile.mkdtemp(dir=work)
        exps = experiments(pass_dir)
        tracer = spans.Tracer() if traced else None
        undo = spans.install(tracer) if traced else []
        try:
            cpu, norm, wall, outcomes = timed_pass(exps, tracer)
        finally:
            spans.uninstall(undo)
        shutil.rmtree(pass_dir)
        verifier.verify(exps, outcomes, traced)
        cpus[traced].append(cpu)
        walls[traced].append(wall)
        if not traced:
            norms.append(norm)
        else:
            report_bytes = sum(len(o[1].encode()) for o in outcomes if isinstance(o, tuple))
            layers.append(spans.layer_metrics(tracer, report_bytes))
        now = time.perf_counter()
        longest = max(longest, now - pass_started)
        enough = walls[True] if args.trace else walls[False]
        if enough and now - start + longest > args.seconds:
            break

    if args.trace:
        metrics = {name: _median([m[name] for m in layers]) for name in layers[0]}
        metrics["trace.overhead_s"] = (statistics.median(cpus[True])
                                       - statistics.median(cpus[False]))
    else:
        metrics = {
            "norm_cpu_s": statistics.median(norms),
            "setup_s": statistics.median(setup_norm),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    passes = {"untraced_norm_cpu_s": norms, "setup_norm_s": setup_norm,
              "calibration_s": setup_cals,
              "untraced_cpu_s": cpus[False], "untraced_wall_s": walls[False],
              "traced_cpu_s": cpus[True], "traced_wall_s": walls[True],
              "setup_cpu_s": [c for c, _ in setup], "setup_wall_s": [w for _, w in setup]}
    return metrics, passes, verifier


def _median(values):
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def report(args, metrics, passes, verifier, spec):
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} "
                           "do not match BENCHMARK.json")
    for key, message in verifier.failures[:20]:
        print(f"FAILED {key}: {message}")
    print(f"{args.workload} passes {json.dumps(passes)}")
    for name in units:
        print(f"{args.workload} {name} = {metrics[name]!r} {units[name]}")
    for name in ("untraced_cpu_s", "untraced_wall_s", "setup_cpu_s", "setup_wall_s"):
        if passes[name]:   # not gated: they move with the host's speed
            print(f"{args.workload} median {name} = {statistics.median(passes[name])!r} s")
    attempted, failed = verifier.attempted, len(verifier.failures)
    print(f"{args.workload} error_rate = {failed / attempted!r} ({failed}/{attempted})")
    print("env " + json.dumps(environment(args), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


def run_all(args, names):
    status = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, timeout=600)
        status = status or proc.returncode
    return status


def main(argv=None):
    load_program()
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    spec = benchmark_spec()
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, os.path.join(work, "warm"))
            print(f"ready {time.process_time()!r}", flush=True)
            return 0
        metrics, passes, verifier = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args, metrics, passes, verifier, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
