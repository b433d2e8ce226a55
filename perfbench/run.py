"""Benchmark of the whitney CLI pipelines on a barycentric-subdivision ladder.

Run from the repository root; whitney need not be installed (``src`` is put
on the path):

    python3 perfbench/run.py --workload moment --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``moment``, ``stiefel_bounds``, ``projection``
and ``verify``.  Inputs are generated at set-up from the bundled corpus by
the benchmark's own code, from ``--seed`` alone.  Jobs run in process through
``whitney.cli.main(argv)``, as a closed loop: one client, one thread, the
next job sent when the previous one returns.  A run replays whole rounds of
the workload's job list until ``--seconds`` have passed, then checks every
job's outputs against oracles that share no code with the program.

``--trace 0`` prints the end-to-end metrics.  Their times are given in
``ref``, the mean time of a fixed stdlib-only reference loop timed between
the jobs of the same round (``reference_loop``): the shared machine's speed
drifts by tens of percent over minutes, and slows the loop about as much as
the jobs, so times in ``ref`` stay steady between runs where seconds do not.
The run record keeps the times in seconds as well.  ``--trace 1`` alternates
untraced rounds with rounds under timing wrappers on each layer's public
functions (spans.py), and prints the per-layer metrics.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run also writes
``perfbench/out/BENCH_<workload>_s<seed>_t<trace>.json`` with every job's
arguments, time and output SHA-256 digests, the rung sizes, the Python
version, git SHA and processor count; a traced run writes its spans to
``perfbench/out/spans_<workload>_s<seed>.tsv.gz``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import log
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = SRC / "whitney" / "corpus"
OUT = HERE / "out"
SETUPS = 15  # set-up repetitions after the timed rounds; setup_s takes their median

sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

UNITS = {
    "setup_s": "s",
    "simplices_per_ref": "simplices/ref",
    "checks_per_ref": "checks/ref",
    "job_p50_ref": "ref",
    "job_p90_ref": "ref",
    "growth_exponent": "1",
    "peak_rss_mb": "MB",
}
REF_EVERY_S = 0.1  # the reference loop is timed between jobs this often


def reference_loop() -> float:
    """Seconds for one pass of a fixed loop that uses no whitney code.

    It does what the program spends its time on (Fraction arithmetic,
    sorted tuples, subsets, set and dict updates), with the garbage
    collector off so that the program's heap does not slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    seen, count, acc = set(), {}, Fraction(0)
    for n in range(600):
        s = tuple(sorted((f"v{n * 7 % 97}", f"v{n * 13 % 89}", f"v{n % 31}")))
        for f in combinations(s, 2):
            seen.add(f)
            count[f] = count.get(f, 0) + 1
        acc += Fraction(n % 17, n % 13 + 1)
    dt = perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


def fill(arg: str, inp: Path, out: Path) -> str:
    return arg.replace("{inp}", str(inp)).replace("{out}", str(out))


def run_job(cli, argv: list[str]):
    """One in-process CLI call: (seconds, exit code, error, captured stdout).

    The error is the exception raised, or the last stderr line of a non-zero exit.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            rc = cli.main(argv)
        error = None if rc == 0 else f"exit code {rc}: {stderr.getvalue().strip()[-300:]}"
    except SystemExit as e:
        rc, error = e.code, f"SystemExit: {e.code}"
    except Exception as e:  # a crash is a failed job, not a failed run
        rc, error = None, f"{type(e).__name__}: {e}"
    return perf_counter() - t0, rc, error, stdout.getvalue()


def setup(workload: str, seed: int, work: Path):
    """Import whitney afresh, generate the inputs and run one warm-up job.

    Returns (seconds, the whitney.cli module, the plan).
    """
    for name in [n for n in sys.modules if n == "whitney" or n.startswith("whitney.")]:
        del sys.modules[name]
    inputs = work / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    t0 = perf_counter()
    cli = importlib.import_module("whitney.cli")
    jobs, rungs, sd0 = workloads.build(workload, seed, CORPUS, inputs)
    warm = min(range(len(jobs)), key=lambda j: (jobs[j]["size"], j))
    warm_dir = work / "warmup"
    warm_dir.mkdir(parents=True, exist_ok=True)
    run_job(cli, [fill(a, inputs, warm_dir) for a in jobs[warm]["argv"]])
    return perf_counter() - t0, cli, (jobs, rungs, sd0, inputs)


def run_rounds(cli, jobs, inputs: Path, work: Path, first_round: int,
               seconds: float | None = None, rounds: int | None = None, tracer=None,
               refs: dict | None = None):
    """Closed loop over whole rounds; stops after `rounds`, or once `seconds` passed.

    If `refs` is given, the reference loop is timed before each round and
    between two jobs once every REF_EVERY_S seconds, so that its samples
    follow the machine's speed as the jobs meet it; refs[round] lists its
    times.  Returns the job records.
    """
    records = []
    t0 = last_ref = perf_counter()
    r = first_round
    while True:
        done = r - first_round
        if rounds is not None and done >= rounds:
            break
        if rounds is None and done > 0 and perf_counter() - t0 >= seconds:
            break
        rdir = work / f"r{r}"
        rdir.mkdir(parents=True)
        for slot, job in enumerate(jobs):
            if refs is not None and (slot == 0 or perf_counter() - last_ref >= REF_EVERY_S):
                refs.setdefault(r, []).append(reference_loop())
                last_ref = perf_counter()
            if tracer is not None:
                tracer.job = f"{r}:{slot}"
            dt, rc, error, stdout = run_job(cli, [fill(a, inputs, rdir) for a in job["argv"]])
            records.append({"round": r, "slot": slot, "time_s": dt, "rc": rc, "error": error,
                            "stdout": stdout})
        r += 1
    return records


def in_ref(records, refs: dict) -> list[float]:
    """Each job's time divided by the mean reference-loop time of its round."""
    ref = {r: statistics.fmean(ts) for r, ts in refs.items()}
    return [rec["time_s"] / ref[rec["round"]] for rec in records]


def run_traced(cli, jobs, inputs: Path, work: Path, seconds: float, tracer):
    """Pairs of rounds, one untraced and one traced, in the order ABBA ABBA ...

    Alternating within each pair, and job times in ref, cancel the
    machine's drift in trace.overhead_ratio.  A first untraced round, left
    out of the ratio, takes the cost of growing the heap and filling
    caches.  Returns the job records and the summed job times in ref of the
    untraced and of the traced rounds.
    """
    t0 = perf_counter()
    records = run_rounds(cli, jobs, inputs, work, 0, rounds=1)
    busy, refs = {False: 0.0, True: 0.0}, {}
    r = 1
    while r == 1 or perf_counter() - t0 < seconds:
        for traced in ((False, True) if r % 4 == 1 else (True, False)):
            if traced:
                tracer.install()
            try:
                recs = run_rounds(cli, jobs, inputs, work, r, rounds=1,
                                  tracer=tracer if traced else None, refs=refs)
            finally:
                tracer.uninstall()
            records += recs
            busy[traced] += sum(in_ref(recs, refs))
            r += 1
    return records, busy[False], busy[True]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_records(records, jobs, inputs: Path, work: Path, ref) -> None:
    """Digest every output, then check it; sets rec["digests"] and rec["failure"].

    A slot replays identical inputs every round, so its outputs must be
    byte-identical across rounds; an output equal to one already checked
    is accepted on its digest, any other is checked from scratch.
    """
    checked: dict[int, dict] = {}
    for rec in records:
        job = jobs[rec["slot"]]
        rdir = work / f"r{rec['round']}"
        files = {role: Path(fill(p, inputs, rdir)) for role, p in job["outputs"].items()}
        digests = {"stdout": sha256(rec["stdout"].encode())}
        for role, path in files.items():
            if path.exists():
                digests[role] = sha256(path.read_bytes())
        rec["digests"] = digests
        if job.get("fn"):
            files["fn"] = Path(fill(job["fn"], inputs, rdir))
        failure = rec["error"]
        if failure is None and checked.get(rec["slot"]) != digests:
            try:
                oracles.check(job, files, rec["stdout"], ref)
            except Exception as e:  # any parse error or mismatch fails the job
                failure = f"{type(e).__name__}: {e}"
            if failure is None and rec["slot"] in checked:
                failure = "output differs from an earlier round of the same job"
            if failure is None:
                checked[rec["slot"]] = digests
        rec["failure"] = failure


def verify_trials(stdout: str) -> int:
    try:
        return sum(p["trials"] for p in json.loads(stdout)["properties"])
    except (ValueError, KeyError, TypeError):
        return 0


def growth_exponent(records, jobs) -> float:
    """Least-squares slope of log(mean job time) on log(mean simplices), per rung."""
    by_rung: dict[str, list] = {}
    for rec in records:
        job = jobs[rec["slot"]]
        by_rung.setdefault(job["rung"], []).append((job["size"], rec["time_s"]))
    pts = [(log(statistics.fmean(s for s, _ in v)), log(statistics.fmean(t for _, t in v)))
           for v in by_rung.values()]
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


def p50_p90(times) -> tuple[float, float]:
    times = sorted(times)
    return statistics.median(times), statistics.quantiles(times, n=10, method="inclusive")[8]


def end_to_end(workload, records, jobs, refs, setup_s, rss_mb):
    """End-to-end metrics over every job of the timed rounds.

    Each job's time is taken in ref, the mean reference-loop time of its
    round; the run record also gives the figures in seconds.
    """
    times = in_ref(records, refs)
    p50, p90 = p50_p90(times)
    # a verify job records many property trials; any other job one checked output
    checks = sum(verify_trials(rec["stdout"]) if workload == "verify" else 1 for rec in records)
    simplices = sum(jobs[rec["slot"]]["size"] for rec in records)
    metrics = {
        "setup_s": setup_s,
        "simplices_per_ref": simplices / sum(times),
        "checks_per_ref": checks / sum(times),
        "job_p50_ref": p50,
        "job_p90_ref": p90,
        "growth_exponent": growth_exponent(records, jobs),
        "peak_rss_mb": rss_mb,
    }
    beyond = sum(t > p90 for t in times)
    busy = sum(rec["time_s"] for rec in records)
    p50_s, p90_s = p50_p90(rec["time_s"] for rec in records)
    info = {"samples": len(times), "rounds": len(refs), "beyond_p90": beyond,
            "p90_valid": beyond >= 10,
            "seconds": {"simplices_per_s": simplices / busy, "checks_per_s": checks / busy,
                        "job_p50_s": p50_s, "job_p90_s": p90_s,
                        "ref_s": statistics.fmean(t for ts in refs.values() for t in ts)},
            "ref_times_s": refs}
    return metrics, info


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def rung_record(workload, jobs, rungs):
    if workload == "verify":
        return {job["rung"]: {"simplices": job["size"],
                              "members": list(workloads.VERIFY_RUNGS[job["rung"]])} for job in jobs}
    return {name: {"simplices_per_dim": k.counts(), "simplices": len(k),
                   "subdivided_simplices": workloads.subdivided_size(k)} for name, k in rungs.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "whitney" / "cli.py").is_file() or not (CORPUS / "index.json").is_file():
        print(f"error: whitney sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work_{args.workload}_s{args.seed}_{os.getpid()}"
    try:
        dt, cli, (jobs, rungs, sd0, inputs) = setup(args.workload, args.seed, work)
        setups = [dt]
        rss_setup_mb = peak_rss_mb()
        if args.trace:
            tracer = spans.Tracer()
            records, busy, traced_busy = run_traced(cli, jobs, inputs, work, args.seconds, tracer)
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_ratio"] = traced_busy / busy
            units = {name: _layer_unit(name) for name in metrics}
            info = {"rounds": len(records) // len(jobs), "untraced_busy_ref": busy,
                    "traced_busy_ref": traced_busy, "spans": len(tracer.spans)}
            tracer.write(OUT / f"spans_{args.workload}_s{args.seed}.tsv.gz")
        else:
            refs: dict[int, list[float]] = {}
            records = run_rounds(cli, jobs, inputs, work, 0, seconds=args.seconds, refs=refs)
            rss_mb = peak_rss_mb()
            setups += [setup(args.workload, args.seed, work)[0] for _ in range(SETUPS - 1)]
            metrics, info = end_to_end(args.workload, records, jobs, refs,
                                       statistics.median(setups), rss_mb)
            units = UNITS
        info["peak_rss_after_setup_mb"] = rss_setup_mb

        check_records(records, jobs, inputs, work, oracles.Reference(rungs, sd0))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(rec["failure"] is not None for rec in records)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "git_sha": git_sha(), "nproc": os.cpu_count(),
        "setup_runs_s": setups, "rungs": rung_record(args.workload, jobs, rungs),
        "attempted": len(records), "failed": failed, "failed_ratio": failed / len(records),
        "run": info, "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "jobs": [{"round": rec["round"], "slot": rec["slot"], "kind": jobs[rec["slot"]]["kind"],
                  "argv": jobs[rec["slot"]]["argv"], "size": jobs[rec["slot"]]["size"],
                  "time_s": rec["time_s"], "rc": rec["rc"], "digests": rec["digests"],
                  "failure": rec["failure"]} for rec in records],
    }
    path = OUT / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for rec in records:
        if rec["failure"] is not None:
            print(f"FAILED round {rec['round']} slot {rec['slot']} "
                  f"{' '.join(jobs[rec['slot']]['argv'])}: {rec['failure']}")
    print(f"{args.workload}: {len(records)} jobs, {failed} failed "
          f"(failed_ratio {failed / len(records):.4f}); "
          f"{json.dumps({k: v for k, v in info.items() if not isinstance(v, list)})}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    if name.startswith("fileio.bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
