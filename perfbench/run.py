"""Benchmark runner for motive-series: closed loop, one client, in process.

Usage (from the repository root):

    python3 perfbench/run.py --workload formula --seed 1 --seconds 10 --trace 0

Workloads: formula, oracle, points, verify (or `all`, which runs each in a
process of its own).  `--seed` draws the job list from the recorded job
pools in `perfbench/reference.json` (see select_jobs).  Each job runs through
`cli.main([...])` with stdout captured (or the library call where no
command exists), and its exit code and canonical stdout are checked
against the digest recorded from the seed commit.  Jobs run back to
back, the next only after the previous one returned, in passes over the
job list until `--seconds` have elapsed.

End-to-end metrics (`--trace 0`): setup_s (median of this process's and
SETUP_REPEATS fresh processes' set-up), wall_s (the job list's time: the
sum of its job latencies), items_per_s, job_ms.p50, job_ms.tail (the
TAIL_PCT percentile of the job latencies) and peak_rss_mb.  Every time
is scaled to the reference machine speed of `pace.py` by a kernel timed
around it; a job's latency is the median of its scaled runs (see
latencies).  The measured (unscaled) figures are printed beside them.
fail_frac is printed but is not a metric of the result line, whose
`failed`/`attempted` carry it.

`--trace 1` alternates untraced passes with passes under the tracer of
`spans.py`, and reports per-layer metrics (medians over traced
passes), the tracing overhead and the false-budget probe.  The last line
of stdout is one JSON object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

import pace

PACE_AT_START = pace.median_kernel_ms(3)  # machine speed before set-up
T0 = perf_counter()  # the set-up clock starts before any heavy import

os.environ.pop("MOTIVE_SERIES_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("formula", "oracle", "points", "verify")
SETUP_REPEATS = 4  # extra set-ups in child processes; setup_s is the median
# Job lists hold 50 or more jobs, so the 80th percentile has at least ten
# jobs beyond it; verify's list is its one job, whose latency is then also
# its p50 and tail.
TAIL_PCT = 80
BALANCE = 0.03  # see select_jobs
BALANCE_TRIES = 1000
PROBE_MAX_JET = 64  # the default --max-jet, used by the false-budget probe
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "job_ms.p50": "ms",
    "job_ms.tail": "ms",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (missing sources or reference)."""


# -- the program under test ---------------------------------------------------


def import_package():
    src = ROOT / "src"
    if not (src / "motive_series" / "__init__.py").is_file():
        raise SetupError("%s/motive_series not found; run from the repository root" % src)
    sys.path.insert(0, str(src))
    import motive_series

    if Path(motive_series.__file__).resolve().parent != (src / "motive_series").resolve():
        raise SetupError("motive_series imported from %s, not %s" % (motive_series.__file__, src))
    return motive_series


def digest(code, text):
    """Digest of an exit code and the canonical form of a stdout text."""
    try:
        text = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
    except ValueError:
        pass
    return hashlib.sha256(("%s\n%s" % (code, text)).encode()).hexdigest()[:16]


def run_cli(argv):
    """cli.main(argv) with stdout captured: (exit code, stdout)."""
    from motive_series import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback: exit 1, as the console script would
            code = 1
    return code, out.getvalue()


def run_hilbert_ie(path, hi):
    """formulas.hilbert_ie_series on a divisorial oracle of a script file."""
    from motive_series import MotiveSeriesError, blowup, formulas
    from motive_series.errors import PrecisionExhausted

    try:
        with open(path) as fh:
            doc = json.load(fh)
        oracle = blowup.DivisorialOracle(blowup.run_script(doc))
        series = formulas.hilbert_ie_series(oracle.hilbert, len(hi), tuple(hi))
    except PrecisionExhausted:
        return 3, ""
    except MotiveSeriesError:
        return 2, ""
    except Exception:
        return 1, ""
    return 0, json.dumps(series.to_json(), sort_keys=True)


class Job:
    """One reference job, with its input files written under `workdir`."""

    def __init__(self, spec, workdir):
        self.spec = spec
        self.id = spec["id"]
        self.cat = spec["cat"]
        self.items = spec.get("items", 0)
        self.expect = [tuple(e) for e in spec.get("expect", ())]
        self.dir = workdir / self.id
        self.dir.mkdir(parents=True, exist_ok=True)
        for name, doc in spec["files"].items():
            with open(self.dir / name, "w") as fh:
                json.dump(doc, fh)
        self.steps = [[self._path(a) for a in argv] for argv in spec.get("steps", ())]

    def _path(self, arg):
        return str(self.dir / arg[1:]) if arg.startswith("@") else arg

    def run(self, steps=None):
        """Run the job; returns (measured seconds, [(exit, digest), ...])."""
        from motive_series import verify

        if self.cat == "verify":
            verify._CACHE.clear()
        outputs = []
        start = perf_counter()
        for k, argv in enumerate(steps or self.steps or [None]):
            if self.cat == "ie":
                code, text = run_hilbert_ie(self._path("@script.json"), self.spec["hi"])
            else:
                code, text = run_cli(argv)
            outputs.append((code, text))
            with open(self.dir / ("out%d.json" % k), "w") as fh:
                fh.write(text)
        seconds = perf_counter() - start
        return seconds, [(code, digest(code, text)) for code, text in outputs]

    def ok(self, results):
        return [tuple(r) for r in results] == self.expect

    def probe_steps(self):
        """The query at the default jet cap, if its answer needs jets above
        half of it (where the seed commit reports a false budget error)."""
        argv = self.steps[0] if self.steps else []
        if "--at" not in argv or "--max-jet" not in argv:
            return None
        at = [int(x) for x in argv[argv.index("--at") + 1].split(",")]
        if max(at) <= PROBE_MAX_JET // 2:
            return None
        k = argv.index("--max-jet")
        return [argv[:k] + argv[k + 2 :]]


# -- job selection ---------------------------------------------------------------


def profile(specs):
    """Mean cost, mean items, median cost and TAIL_PCT cost of job specs."""
    cost = [s["cost_ms"] for s in specs]
    items = sum(s["items"] for s in specs)
    return (sum(cost) / len(cost), items / len(cost), statistics.median(cost), tail(cost, TAIL_PCT)[0])


def select_jobs(spec, seed):
    """A seeded job list: per category, `per_pass` jobs, one from each
    stratum of the pool sorted by recorded cost, in a seeded order.

    Job costs and item counts are heavy-tailed, so a plain random pick
    would move every metric from seed to seed.  Picks are therefore drawn
    until one's profile (see `profile`) is within BALANCE of the whole
    pool's (else the closest of BALANCE_TRIES is kept): seeds differ in
    inputs, not in load."""
    rng = random.Random(seed)
    strata = []
    for cat, n in sorted(spec["per_pass"].items()):
        pool = sorted((j for j in spec["jobs"] if j["cat"] == cat), key=lambda j: (j["cost_ms"], j["id"]))
        size = len(pool) // n
        strata += [pool[k * size : (k + 1) * size] for k in range(n)]
    want = profile(spec["jobs"])
    best = None
    for _ in range(BALANCE_TRIES):
        pick = [rng.choice(s) for s in strata]
        err = max(abs(got - w) / w for got, w in zip(profile(pick), want))
        if best is None or err < best[0]:
            best = (err, pick)
        if err <= BALANCE:
            break
    jobs = list(best[1])
    rng.shuffle(jobs)
    return jobs


# -- metrics -----------------------------------------------------------------------


def latencies(loop, measured=False):
    """Each job's latency in ms: the median of its runs, each scaled to
    the reference machine speed (see pace.py), or with `measured` as
    timed.

    On the shared 2-core host the benchmark was built on, wall_s spread
    (quartile distance over median, ten seeds) 3-6 % with scaled medians
    and 10-23 % with the fastest of the measured runs."""
    runs = loop.measured_ms if measured else loop.job_ms
    return [statistics.median(runs[job.id]) for job in loop.jobs]


def tail(samples, pct):
    """(value, jobs beyond it): the nearest-rank `pct` percentile."""
    xs = sorted(samples)
    value = xs[max(0, math.ceil(pct / 100 * len(xs)) - 1)]
    return value, sum(1 for x in xs if x > value)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    """Closed-loop passes over a job list, with per-job checks.

    Each pass runs the jobs in a new seeded order, so that a job's runs
    fall at different points of the host's slow and fast phases."""

    def __init__(self, jobs, seed, tracer=None):
        self.jobs = jobs
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.pass_s = []
        self.job_ms = {job.id: [] for job in jobs}  # scaled to pace.REF_MS
        self.measured_ms = {job.id: [] for job in jobs}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.layer = []  # per-pass per-layer metrics (traced loops)

    def run_pass(self):
        gc.collect()
        tracer = self.tracer
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            order = list(self.jobs)
            self.rng.shuffle(order)
            start = perf_counter()
            before = pace.kernel_ms()
            for job in order:
                if tracer is not None:
                    tracer.job = job.id
                secs, results = job.run()
                after = pace.kernel_ms()
                self.job_ms[job.id].append(pace.scale(secs * 1000.0, before, after))
                self.measured_ms[job.id].append(secs * 1000.0)
                before = after
                self.attempted += 1
                if not job.ok(results):
                    self.failed += 1
                    self.failures.append((job.id, results, job.expect))
            self.pass_s.append(perf_counter() - start)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            self.layer.append(tracer.metrics())


def run_passes(loops, seconds):
    """Whole passes of each loop in turn, at least one each, until another
    round would end more than half a round past `seconds`; alternating
    lets a traced and an untraced loop see the same drift in machine speed."""
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        for loop in loops:
            loop.run_pass()
        now = perf_counter()
        if now + 0.5 * (now - start) >= deadline:
            return loops


# -- set-up ------------------------------------------------------------------------


def setup(workload, seed, workdir, tiny=False):
    """Import, draw the job list, write its inputs, warm up each job kind.

    `tiny` keeps only the cheapest job of each category (smoke tests).
    Returns (jobs, warm-up failures).
    """
    import_package()
    from motive_series import cli, verify  # noqa: F401  (imports are set-up cost)

    if not REFERENCE.is_file():
        raise SetupError("%s not found" % REFERENCE)
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    spec = ref["workloads"][workload]
    specs = select_jobs(spec, seed)
    if tiny:
        cats = sorted({s["cat"] for s in specs})
        specs = [min((s for s in specs if s["cat"] == c), key=lambda s: s["cost_ms"]) for c in cats]
    jobs = [Job(s, workdir) for s in specs]
    bad = []
    for cat in sorted({j.cat for j in jobs}):
        cheapest = min((j for j in jobs if j.cat == cat), key=lambda j: j.spec["cost_ms"])
        _, results = cheapest.run()
        if not cheapest.ok(results):
            bad.append((cheapest.id, results, cheapest.expect))
    return jobs, bad


def scaled_setup_seconds():
    """This process's set-up time so far, scaled to the reference speed
    by kernel runs before its clock started and now."""
    return pace.scale(perf_counter() - T0, PACE_AT_START, pace.median_kernel_ms(3))


def child_setup_seconds(workload, seed):
    """Scaled set-up time of a fresh process, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError("set-up child failed: %s" % proc.stderr.strip()[-500:])
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- one workload ------------------------------------------------------------------


def fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def run_workload(workload, seed, seconds, trace, workdir, setup_repeats=SETUP_REPEATS, tiny=False, log=print):
    jobs, warm_bad = setup(workload, seed, workdir, tiny)
    setup_s = scaled_setup_seconds()
    items = sum(j.items for j in jobs)
    log("workload %s, seed %d: %d jobs per pass, %d items per pass" % (workload, seed, len(jobs), items))
    if not trace:
        (loop,) = run_passes([Loop(jobs, seed)], seconds)
        setups = [setup_s] + [child_setup_seconds(workload, seed) for _ in range(setup_repeats)]
        lat = latencies(loop)
        wall = sum(lat) / 1000.0
        value, beyond = tail(lat, TAIL_PCT)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "items_per_s": items / wall,
            "job_ms.p50": statistics.median(lat),
            "job_ms.tail": value,
            "peak_rss_mb": peak_rss_mb(),
        }
        measured = latencies(loop, measured=True)
        notes = {
            "setup_s": "median of %d scaled set-ups" % len(setups),
            "wall_s": "sum of %d job latencies, each the median of %d runs; measured %.4g s"
            % (len(lat), len(loop.pass_s), sum(measured) / 1000.0),
            "job_ms.p50": "median of %d job latencies; measured %.4g ms" % (len(lat), statistics.median(measured)),
            "job_ms.tail": "p%g of %d job latencies, %d beyond; measured %.4g ms"
            % (TAIL_PCT, len(lat), beyond, tail(measured, TAIL_PCT)[0]),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        fail_frac = loop.failed / loop.attempted
        metrics_print = dict(metrics, fail_frac=(fail_frac, "ratio"))
        notes["fail_frac"] = "%d of %d jobs" % (loop.failed, loop.attempted)
    else:
        from spans import Tracer

        tracer = Tracer()
        plain, loop = run_passes([Loop(jobs, seed), Loop(jobs, seed, tracer)], seconds)
        loop.attempted += plain.attempted
        loop.failed += plain.failed
        loop.failures += plain.failures
        metrics = {}
        for name, (_, unit) in loop.layer[0].items():
            metrics[name] = (statistics.median(p[name][0] for p in loop.layer), unit)
        overhead = sum(latencies(loop)) / sum(latencies(plain))
        metrics["trace.overhead"] = (overhead, "ratio")
        probes = [(j, j.probe_steps()) for j in jobs]
        probes = [(j, steps) for j, steps in probes if steps]
        refused = sum(1 for j, steps in probes if not j.ok(j.run(steps)[1]))
        metrics["cli.false_budget_frac"] = (refused / len(probes) if probes else 0.0, "ratio")
        notes = {
            "trace.overhead": "traced/untraced job-list time, %d passes each" % len(loop.pass_s),
            "cli.false_budget_frac": "%d of %d probes at the default --max-jet" % (refused, len(probes)),
        }
        metrics_print = metrics
        out = ROOT / ".perfbench_work"
        out.mkdir(exist_ok=True)
        tracer.write_spans(out / ("trace-%s-s%d.jsonl" % (workload, seed)))
    for name, (value, unit) in metrics_print.items():
        note = notes.get(name)
        log("  %-34s %12s %-6s%s" % (name, fmt(value), unit, "  (%s)" % note if note else ""))
    for job_id, got, want in (warm_bad + loop.failures)[:5]:
        log("  MISMATCH %s: got %s, expected %s" % (job_id, got, want))
    return {
        "correct": not warm_bad and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Each workload in its own process, one after the other."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=str(ROOT), capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up, print setup_s, exit")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workdir = ROOT / ".perfbench_work" / ("%s-s%d-p%d" % (args.workload, args.seed, os.getpid()))
    try:
        if args.setup_only:
            setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": scaled_setup_seconds()}))
            return 0
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, workdir)
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
