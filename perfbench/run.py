"""liecones benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``interactions.json`` for why each exists):

  cli-batch        one fresh ``python -m liecones.cli`` process per job
  orbit-sweep      classify_orbits on seeded windows, one warm process
  structure-sweep  axioms / roots / star-reduced / derivations, new algebras
  clifford-tower   Clifford modules over Q(i, sqrt c), Thm 7.2, osp(1|2) shells

Every workload is closed-loop with one client.  A run repeats whole passes
of its job list (at least MIN_PASSES) until the jobs have been busy for
``--seconds`` reference seconds; each job is checked against the oracle after
its timing stops.  Job times are in reference seconds (see ``calibrate``).  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` a warm-up pass (in-process workloads), then one untraced and
one traced pass of the job list give the per-layer metrics (see
``tracing.py``, raw seconds), and the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

import oracle
import tracing as tr
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
JOB_TIMEOUT_S = 120          # one CLI job
RUN_LIMIT_S = 120            # no new pass starts after this much wall time
SETUP_SAMPLES = 3            # cold set-ups per run: fresh interpreters, then this process
PROBE_REPEATS = 5
HASH_SEED = "0"              # PYTHONHASHSEED of the benchmark and of every child
# orbit-sweep and clifford-tower repeat whole passes, a cli-batch pass repeats
# its cheap fixed jobs, and structure-sweep, whose timed jobs never repeat an
# input, re-runs some of them untimed (workloads.RECHECK_JOBS): byte
# determinism is checked on every workload.  MIN_PASSES times the pass time
# stays well above --seconds (8), so that the number of jobs, and with it the
# tail percentile, does not flip between runs.
MIN_PASSES = {"cli-batch": 1, "orbit-sweep": 2, "structure-sweep": 1, "clifford-tower": 6}

# Machine-speed calibration.  On a shared host the speed of pure-Python work
# changes by up to 1.7x from one second to the next (``calibrate()`` reads
# from about 4 to about 7 ms), for CPU time as much as for wall time, and
# short bursts can slow a single timing 3x.  Every run calls ``calibrate()``
# before its first job and after every job, and reports job times in
# reference seconds: each latency * CAL_REF_S / the mean of the calibrations
# just before and after it, i.e. seconds on a machine where ``calibrate()``
# returns CAL_REF_S.  Each step of a set-up is normalized the same way
# (``timed_setup``).  Raw values are in the ``detail:`` line and in
# .perfbench_out/result-*.json.
CAL_REF_S = 0.006


def calibrate() -> float:
    """Median of three timings of a fixed amount of Fraction arithmetic (no
    liecones code); the median discards one timing that a burst slowed."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = Fraction(0)
        for k in range(1, 834):
            x += Fraction(1, k) * Fraction(k + 1, 3)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv: list, cwd: str, timeout: float = JOB_TIMEOUT_S):
    """Run one child to completion; (exit code, stdout, stderr, peak RSS in MB)."""
    os.makedirs(OUT, exist_ok=True)
    out_path, err_path = os.path.join(OUT, "child.out"), os.path.join(OUT, "child.err")
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=fo, stderr=fe,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fo, open(err_path, "rb") as fe:
        return proc.returncode, fo.read(), fe.read(), usage.ru_maxrss / 1024


def child_numbers(argv: list) -> list[float]:
    """The numbers on the last stdout line of a child."""
    rc, out, err, _ = spawn(argv, ROOT)
    if rc != 0:
        raise RuntimeError(f"{argv[1:]} failed: {err.decode()[-2000:]}")
    return [float(x) for x in out.decode().splitlines()[-1].split()]


def median_time(argv: list, n: int) -> float:
    return statistics.median(child_numbers(argv)[0] for _ in range(n))


def timed_setup(workload: str, seed: int, workdir: str) -> tuple[float, float, object]:
    """One cold set-up: (reference seconds, raw seconds, workload state).

    The set-up calls ``lap()`` between its steps (the import, each algebra);
    like a job, each step is normalized by the calibrations just before and
    after it, and the calibrations are not counted."""
    ref = raw = 0.0
    cal = calibrate()
    t0 = time.perf_counter()

    def lap():
        nonlocal ref, raw, cal, t0
        dt = time.perf_counter() - t0
        after = calibrate()
        raw += dt
        ref += dt * CAL_REF_S * 2 / (cal + after)
        cal = after
        t0 = time.perf_counter()

    state = wl.WORKLOADS[workload](seed, workdir, lap)
    lap()
    return ref, raw, state


def spawn_wall(argv: list) -> float:
    t0 = time.perf_counter()
    rc, _, err, _ = spawn(argv, ROOT)
    if rc != 0:
        raise RuntimeError(err.decode())
    return time.perf_counter() - t0


def environment(args) -> dict:
    return {"python": platform.python_version(),
            "sympy": importlib.metadata.version("sympy"),
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "nproc": os.cpu_count(), "hash_seed": os.environ.get("PYTHONHASHSEED"),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def tail(latencies: list) -> tuple[int, float]:
    """Highest integer percentile with at least ten jobs beyond it (nearest rank)."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, -1, -1):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 100, xs[-1]


class Runner:
    """Runs passes of one workload and keeps latencies, failures and bytes."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.workdir = os.path.join(OUT, f"work-{workload}-{seed}")
        self.latencies: list[float] = []
        self.labels: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.prints: dict[str, str] = {}
        self.peak_child_mb = 0.0
        self.schema = None
        self.tracer = None
        self.child_states: list[dict] = []
        self.child_spans: list[list] = []
        self.calibrations: list[float] = []     # one before each job, one after the last
        self.setup_samples: list[float] = []

    def reference_latencies(self) -> list[float]:
        """Each latency normalized by the calibrations just before and after it."""
        c = self.calibrations
        return [dt * CAL_REF_S * 2 / (c[k] + c[k + 1]) for k, dt in enumerate(self.latencies)]

    # -- one job --------------------------------------------------------
    def _judge(self, label: str, result, check, fingerprint) -> None:
        try:
            check(result)
            fp = fingerprint(result)
        except Exception as exc:        # oracle mismatch or malformed result
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return
        seen = self.prints.setdefault(label, fp)
        if seen != fp:
            self.failures.append(f"{label}: output differs from an earlier repeat")

    def run_in_process(self, job: wl.Job) -> float:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.job = job.label
        t0 = time.perf_counter()
        try:
            result = job.run()
        except Exception as exc:
            dt = time.perf_counter() - t0
            self.failures.append(f"{job.label}: {type(exc).__name__}: {exc}")
            return dt
        dt = time.perf_counter() - t0
        self._judge(job.label, result, job.check, job.fingerprint)
        return dt

    def run_cli(self, job: wl.CliJob, traced: bool) -> float:
        self.attempted += 1
        if traced:
            state_file = os.path.join(OUT, "child-trace.json")
            argv = [sys.executable, os.path.join(HERE, "child.py"), "cli", state_file,
                    job.label, "--"] + job.argv
        else:
            argv = [sys.executable, "-m", "liecones.cli"] + job.argv
        t0 = time.perf_counter()
        rc, out, err, rss = spawn(argv, self.workdir)
        dt = time.perf_counter() - t0
        self.peak_child_mb = max(self.peak_child_mb, rss)
        if traced and os.path.exists(state_file):
            with open(state_file) as fh:
                st = json.load(fh)
            os.remove(state_file)
            base = len(self.child_spans)
            self.child_spans += [[n, p + base if p >= 0 else p, j, t0, t1]
                                 for n, p, j, t0, t1 in st.pop("spans")]
            self.child_states.append(st)
        if rc != 0:
            self.failures.append(f"{job.label}: exit {rc}: {err.decode()[-500:]}")
            return dt

        def check(text):
            doc = json.loads(text)
            errs = oracle.schema_errors(self.schema, doc)
            oracle.expect(not errs, f"schema: {errs}")
            job.check(doc)

        self._judge(job.label, out.decode(), check, lambda text: text)
        return dt

    # -- passes -----------------------------------------------------------
    def one_pass(self, state, pass_no: int, traced: bool = False) -> float:
        """Run one pass; returns the summed job latencies."""
        if self.workload == "cli-batch":
            jobs, run = state, lambda job: self.run_cli(job, traced)
        else:
            jobs, run = wl.IN_PROCESS_JOBS[self.workload](state, pass_no), self.run_in_process
        busy = 0.0
        for job in jobs:
            dt = run(job)
            self.latencies.append(dt)
            self.labels.append(job.label)
            self.calibrations.append(calibrate())
            busy += dt
        return busy

    def setup(self, samples: int) -> tuple[float, float, object]:
        """Cold set-ups: all but the last in fresh interpreters, the last one
        here.  Medians of (reference seconds, raw seconds), and the state."""
        argv = [sys.executable, os.path.join(HERE, "child.py"), "setup", self.workload,
                str(self.seed), self.workdir]
        refs, raws = [], []
        for _ in range(samples - 1):
            ref, raw = child_numbers(argv)
            refs.append(ref)
            raws.append(raw)
        ref, raw, state = timed_setup(self.workload, self.seed, self.workdir)
        refs.append(ref)
        raws.append(raw)
        import liecones
        if not os.path.abspath(liecones.__file__).startswith(SRC + os.sep):
            raise RuntimeError(f"liecones imported from {liecones.__file__}, not {SRC}")
        self.setup_samples = refs
        return statistics.median(refs), statistics.median(raws), state

    def load_schema(self) -> None:
        rc, out, err, _ = spawn([sys.executable, "-m", "liecones.cli", "--schema"], ROOT)
        if rc != 0:
            raise RuntimeError(f"--schema failed: {err.decode()}")
        self.schema = json.loads(out)


def timed_run(args) -> dict:
    r = Runner(args.workload, args.seed)
    setup_s, setup_raw, state = r.setup(SETUP_SAMPLES)
    if args.workload == "cli-batch":
        r.load_schema()
    start = time.monotonic()
    busy, passes = 0.0, 0
    r.calibrations.append(calibrate())
    while passes < MIN_PASSES[args.workload] or (
            sum(r.reference_latencies()) < args.seconds
            and time.monotonic() - start < RUN_LIMIT_S):
        busy += r.one_pass(state, passes)
        passes += 1
    for job in wl.RECHECK_JOBS.get(args.workload, lambda _: [])(state):
        r.run_in_process(job)       # untimed: byte determinism on repeated inputs
    if args.workload == "cli-batch":
        peak = r.peak_child_mb
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(r.latencies)
    ref = r.reference_latencies()
    pct, tail_s = tail(ref)
    raw = {"setup_s": setup_raw, "jobs_per_s": n / busy,
           "job_p50_s": statistics.median(r.latencies), "job_tail_s": tail(r.latencies)[1]}
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (n / sum(ref), "1/s"),
        "job_p50_s": (statistics.median(ref), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak, "MB"),
        "success_rate": ((r.attempted - len(r.failures)) / r.attempted, "ratio"),
    }
    detail = {"passes": passes, "jobs": n, "tail_percentile": pct, "busy_s": busy,
              "error_rate": len(r.failures) / r.attempted, "raw": raw,
              "setup_samples": r.setup_samples}
    return finish(args, r, metrics, detail)


def traced_run(args) -> dict:
    r = Runner(args.workload, args.seed)
    extra = {
        "cli.spawn_s": statistics.median(
            spawn_wall([sys.executable, "-c", "pass"]) for _ in range(PROBE_REPEATS)),
        "cli.import_s": median_time(
            [sys.executable, "-c", "import time; t = time.perf_counter(); import liecones; "
             "print(time.perf_counter() - t)"], PROBE_REPEATS),
        "cli.import_sympy_s": median_time(
            [sys.executable, "-c", "import time; t = time.perf_counter(); import sympy; "
             "print(time.perf_counter() - t)"], PROBE_REPEATS),
    }
    _, _, state = r.setup(1)
    if args.workload == "cli-batch":
        r.load_schema()             # its jobs are fresh processes: nothing to warm up
    else:
        r.one_pass(state, 0)        # warm-up, so that both timed passes below are warm
    t0 = time.perf_counter()
    r.one_pass(state, 1)
    untraced = time.perf_counter() - t0
    r.tracer = tr.Tracer()
    if args.workload == "cli-batch":
        t0 = time.perf_counter()
        r.one_pass(state, 1, traced=True)
        traced = time.perf_counter() - t0
        merged = tr.merge(r.child_states)
        spans = r.child_spans
    else:
        r.tracer.install()
        try:
            r.tracer.job = "setup"
            state = wl.WORKLOADS[args.workload](args.seed, r.workdir, lambda: None)
            setup_state = r.tracer.take()
            t0 = time.perf_counter()
            r.one_pass(state, 1)
            traced = time.perf_counter() - t0
        finally:
            r.tracer.uninstall()
        # the pass, plus the catalog builds of the traced set-up
        merged = tr.merge([r.tracer.state(), tr.merge([setup_state], "catalog.")])
        spans = [s[:5] for s in r.tracer.spans]
    extra["trace.overhead_s"] = traced - untraced
    metrics = tr.layer_metrics(merged, extra)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl.gz")
    tr.write_spans(path, spans)
    detail = {"untraced_pass_s": untraced, "traced_pass_s": traced, "spans": len(spans),
              "spans_file": os.path.relpath(path, ROOT)}
    return finish(args, r, {k: (v["value"], v["unit"]) for k, v in metrics.items()}, detail)


def finish(args, r: Runner, metrics: dict, detail: dict) -> dict:
    record = {"environment": environment(args), "detail": detail, "failures": r.failures,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "jobs": list(zip(r.labels, r.latencies)),
              "calibrations": r.calibrations}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-t{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=2)
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print("detail: " + json.dumps(detail, sort_keys=True))
    for f in r.failures[:50]:
        print("FAILED " + f)
    return {"correct": not r.failures, "attempted": r.attempted, "failed": len(r.failures),
            "metrics": record["metrics"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "liecones", "__init__.py")):
        print(f"no liecones sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # str hashes order sets and dicts inside sympy, so a random hash seed
        # moves a short job's time by up to 30% between runs of one input
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path.insert(0, SRC)
    result = traced_run(args) if args.trace else timed_run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
