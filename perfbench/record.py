"""Record the benchmark's job pools and reference digests.

    python3 perfbench/record.py            # draw the pools, record all
    python3 perfbench/record.py --recost   # re-time the recorded pools only

Draws every workload's job pool with the seeded generators in `gen.py`,
runs each job with the code in `src/`, and writes
`perfbench/reference.json`: the jobs, the expected exit code and stdout
digest of every step, each job's item count and its cost in ms.  A cost
is the job's latency as run.py measures it: the median of its runs in
ROUNDS shuffled passes over the pool, each run scaled to the reference
machine speed of `pace.py`.  Run it on the commit whose outputs are the
reference; `run.py` checks every run against these digests.
`--recost` keeps the pools and digests (and checks every run against
them) and re-times the costs only.

Inputs are drawn from fixed distributions, each choice uniform:

* plane curves: 1, 2 or 3 distinct branches (gen.plane_curve);
* formula windows: bound b in [2, 32] on every branch, kind Pg or P;
  scripts of 2-6 blow-ups, b in [2, 32], kind Pg, Phat or P;
* oracle windows: b in [1, 31] on every coordinate, any of the six
  kinds, on plane curves and on the two space-curve fixtures; b is kept
  below 32 because the sweep asks for h one past the window, and above
  32 that hits the false budget error that `points` measures;
  inclusion-exclusion series of scripts of 2-4 blow-ups, b in [1, 31];
* point queries: every coordinate in [0, 64] (the default --max-jet),
  on plane curves and on scripts of 2-3 blow-ups; asked at --max-jet 128
  so that no query fails (see run.py); multiplicity queries of a random
  polynomial on scripts of 2-6 blow-ups.

The heaviest job allowed is cusp at bound 32 through `resolve` and
`poincare --filtration curve --kind Pg`, timed at the start of the
recording; a draw whose job is slower is drawn again.  The share of
draws redrawn, and for `points` the share of kept queries with a
coordinate above 32, are stored beside each pool.  A pool holds
STRATA * PER_PASS[cat] jobs per category; run.py sorts each category
by cost into PER_PASS strata and a seed takes one job from each.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import tempfile
from pathlib import Path

import gen
import run

SERIES_KINDS = ("P", "Pg", "Phat", "H", "L", "Lg")
POINT_TOP = 64  # the default --max-jet
RAISED_MAX_JET = "128"
POOL_SEED = 1
RUNS = 3
ROUNDS = 9
STRATA = 3  # pool jobs per selected job
PER_PASS = {  # workload -> category -> jobs in one pass
    "formula": {"curve": 32, "script": 32},
    "oracle": {"space": 10, "plane": 26, "ie": 14},
    "points": {"hcurve": 24, "hscript": 10, "mult": 16},
    "verify": {"verify": 1},
}
CUSP = {"ambient_dim": 2, "branches": [{"coords": [[[2, "1"]], [[3, "1"]]]}]}


class TooSlow(BaseException):
    pass


def _alarm(signum, frame):
    raise TooSlow()


def measure(spec, workdir, cap):
    """Fastest of RUNS runs, each under a time limit of 1.5 * `cap`:
    (seconds, results), or None if a run hit the limit."""
    job = run.Job(spec, workdir)
    best = None
    signal.signal(signal.SIGALRM, _alarm)
    for _ in range(RUNS):
        signal.setitimer(signal.ITIMER_REAL, 1.5 * cap)
        try:
            seconds, results = job.run()
        except TooSlow:
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if best is not None and results != best[1]:
            raise RuntimeError("job %s is not deterministic" % spec["id"])
        if best is None or seconds < best[0]:
            best = (seconds, results)
    return best


def count_items(cat, text):
    """Output items of a job: one per cross-check line of verify, one per
    coefficient of an output series, else one (a point query)."""
    if cat == "verify":
        return sum(1 for line in text.splitlines() if line.split(" ")[0] in ("ok", "FAIL"))
    doc = json.loads(text)
    return len(doc["terms"]) if "terms" in doc else 1


def bstr(bound):
    return ",".join(map(str, bound))


# -- one random job per call ---------------------------------------------------------


def formula_curve_spec(curve, kind, bound):
    return {
        "files": {"curve.json": curve},
        "steps": [
            ["resolve", "--curve", "@curve.json"],
            ["poincare", "--graph", "@out0.json", "--filtration", "curve"]
            + ["--kind", kind, "--bound", bstr(bound)],
        ],
    }


def formula_curve(rng):
    r = rng.randint(1, 3)
    return formula_curve_spec(gen.plane_curve(rng, r), rng.choice(("Pg", "P")), (rng.randint(2, 32),) * r)


def formula_script(rng):
    n = rng.randint(2, 6)
    script = gen.blowup_script(rng, n)
    kind = rng.choice(("Pg", "Phat", "P"))
    bound = (rng.randint(2, 32),) * n
    return {
        "files": {"script.json": script},
        "steps": [["poincare", "--script", "@script.json", "--kind", kind, "--bound", bstr(bound)]],
    }


def _sweep(curve, r, rng):
    bound = (rng.randint(1, 31),) * r
    return {
        "files": {"curve.json": curve},
        "steps": [
            ["poincare", "--curve", "@curve.json", "--kind", rng.choice(SERIES_KINDS), "--bound", bstr(bound)]
        ],
    }


def oracle_space(rng):
    return _sweep(gen.SPACE_CURVES[rng.choice(sorted(gen.SPACE_CURVES))], 2, rng)


def oracle_plane(rng):
    r = rng.randint(1, 3)
    return _sweep(gen.plane_curve(rng, r), r, rng)


def oracle_ie(rng):
    n = rng.randint(2, 4)
    return {"files": {"script.json": gen.blowup_script(rng, n)}, "hi": [rng.randint(1, 31)] * n}


def _query(flag, name, doc, at):
    return {
        "files": {name: doc},
        "steps": [["hilbert", flag, "@" + name, "--at", bstr(at), "--max-jet", RAISED_MAX_JET]],
    }


def points_hcurve(rng):
    r = rng.randint(1, 3)
    curve = gen.plane_curve(rng, r)
    return _query("--curve", "curve.json", curve, gen.scatter_point(rng, r, POINT_TOP))


def points_hscript(rng):
    n = rng.randint(2, 3)
    script = gen.blowup_script(rng, n)
    return _query("--script", "script.json", script, gen.scatter_point(rng, n, POINT_TOP))


def points_mult(rng):
    n = rng.randint(2, 6)
    argv = ["multiplicity", "--script", "@script.json", "--poly=" + gen.poly_text(rng)]
    if rng.random() < 0.3:
        argv += ["--at", str(rng.randint(1, n))]
    return {"files": {"script.json": gen.blowup_script(rng, n)}, "steps": [argv]}


def verify_job(rng):
    return {"files": {}, "steps": [["verify"]]}


MAKERS = {
    "curve": formula_curve,
    "script": formula_script,
    "space": oracle_space,
    "plane": oracle_plane,
    "ie": oracle_ie,
    "hcurve": points_hcurve,
    "hscript": points_hscript,
    "mult": points_mult,
    "verify": verify_job,
}


def draw_pool(cat, size, cap, rng, workdir, log):
    """`size` jobs of one category, each no slower than `cap` seconds:
    (jobs, share of draws redrawn)."""
    want = 4 if cat == "verify" else 0
    jobs, draws = [], 0
    while len(jobs) < size:
        draws += 1
        if draws > 20 * size:
            raise RuntimeError("%s: too many draws are slower than the cap" % cat)
        spec = dict(MAKERS[cat](rng), id="%s%02d" % (cat, len(jobs)), cat=cat)
        got = measure(spec, workdir, cap if cat != "verify" else 60.0)
        if got is None or (cat != "verify" and got[0] > cap):
            continue
        seconds, results = got
        if any(code != want for code, _ in results):
            raise RuntimeError("%s exits %r, not %d: %s" % (cat, results, want, spec))
        out = (workdir / spec["id"] / ("out%d.json" % (len(results) - 1))).read_text()
        spec.update(expect=[list(r) for r in results], cost_ms=round(seconds * 1000.0, 3))
        spec["items"] = count_items(cat, out)
        jobs.append(spec)
        log("%s: %.1f ms" % (spec["id"], seconds * 1000.0))
    return jobs, round(1 - size / draws, 3)


def recost(jobs, workdir):
    """Set each job's cost to its latency over ROUNDS shuffled passes,
    timed and scaled as run.py times a job."""
    loop = run.Loop([run.Job(spec, workdir) for spec in jobs], POOL_SEED)
    for _ in range(ROUNDS):
        loop.run_pass()
    if loop.failed:
        raise RuntimeError("jobs do not match their digests: %s" % loop.failures[:3])
    for spec, ms in zip(jobs, run.latencies(loop)):
        spec["cost_ms"] = round(ms, 3)


def recost_reference():
    """Re-time the jobs of the recorded pools, keeping everything else."""
    run.import_package()
    import sympy  # noqa: F401

    with open(run.REFERENCE) as fh:
        ref = json.load(fh)
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for workload, spec in ref["workloads"].items():
            if workload != "verify":
                recost(spec["jobs"], Path(tmp))
                print("%s re-timed" % workload, file=sys.stderr)
    write(ref)
    return 0


def write(ref):
    with open(run.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")


def above(spec, top):
    """Whether a point query has a coordinate above `top`."""
    argv = spec["steps"][0]
    return "--at" in argv and max(int(x) for x in argv[argv.index("--at") + 1].split(",")) > top


def main():
    run.import_package()
    import sympy  # noqa: F401  (the first --poly parse would otherwise pay its import)

    ref = {"pool_seed": POOL_SEED, "strata": STRATA, "workloads": {}}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        cusp = dict(formula_curve_spec(CUSP, "Pg", (32,)), id="cusp", cat="curve")
        cap = measure(cusp, Path(tmp), 60.0)[0]
        ref["cap_ms"] = round(cap * 1000.0, 3)
        print("cap (cusp at bound 32): %.1f ms" % (cap * 1000.0), file=sys.stderr)
        for workload, cats in PER_PASS.items():
            spec = {"per_pass": cats, "redrawn": {}, "jobs": []}
            for cat, n in cats.items():
                rng = random.Random("%d-%s" % (POOL_SEED, cat))
                size = n * STRATA if cat != "verify" else 1
                log = lambda s: print(workload, s, file=sys.stderr)  # noqa: E731
                jobs, spec["redrawn"][cat] = draw_pool(cat, size, cap, rng, Path(tmp), log)
                spec["jobs"] += jobs
            if workload != "verify":
                recost(spec["jobs"], Path(tmp))
            if workload == "points":
                queries = [j for j in spec["jobs"] if j["cat"] != "mult"]
                share = sum(above(j, POINT_TOP // 2) for j in queries) / len(queries)
                spec["share_above_32"] = round(share, 3)
            ref["workloads"][workload] = spec
    write(ref)
    return 0


if __name__ == "__main__":
    sys.exit(recost_reference() if sys.argv[1:] == ["--recost"] else main())
