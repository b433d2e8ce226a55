"""Workload definitions: the subdivision ladder of each workload and its job list.

A workload is one round of jobs, repeated until the run's time is up.
``build(workload, seed, corpus_dir, inputs_dir)`` writes every input file
the program will read and returns the round.  Job arguments hold the
placeholders ``{inp}`` (the inputs directory) and ``{out}`` (a directory of
the job's own round), so the same round can be replayed.
"""

from __future__ import annotations

import json
import random
import shutil
from itertools import product
from math import comb
from pathlib import Path

from ladder import Cx, complex_json, function_json, load_corpus_complex, random_euler_function, relabel, subdivide

LADDER_SPACES = ("torus_7", "rp2_6", "wedge_spheres", "pinched_torus")
SMALL_EMBEDDED = ("s1_3", "s1_6", "square", "wedge_circles", "boundary_delta2", "boundary_delta3")

# A run repeats whole rounds, so every run times the same mix of jobs.  A
# round is kept to 1-2 s (7 s for projection), so a run holds several and a
# slow stretch of the shared machine hits few.  That leaves out the rungs whose
# jobs take seconds each: sd1 for moment, sd3 for stiefel_bounds, sd2 of
# rp2_6_embedded and wedge_spheres.
# With whole rounds, the median of m jobs' samples falls between two jobs
# when m is even, where it takes the extremes of both and is noisy; the
# moment and verify rounds are given an odd number of jobs.  boundary_delta3
# makes 15 moment jobs and extends the ladder below the four spaces.
RUNGS = {
    "moment": [(s, 0) for s in LADDER_SPACES + ("boundary_delta3",)],
    "stiefel_bounds": [(s, 1) for s in LADDER_SPACES]
    + [(s, 2) for s in ("torus_7", "rp2_6", "pinched_torus")],
    "projection": [(s, k) for s in ("rp2_6_embedded", "wedge_spheres") + SMALL_EMBEDDED for k in (0, 1)]
    + [("boundary_delta3", 2)],
}

# verify runs on two nested subsets of the bundled corpus: its eight spaces
# of dimension at most 1 (50 simplices), then every space of at most 27
# simplices (124), which brings in 2-dimensional and non-Euler spaces and
# the polar suite's projections.  torus_7, pinched_torus and the RP^2s are
# left out: their stiefel suite passes take seconds each.
VERIFY_SMALL = (
    "point", "interval", "s1_3", "s1_6", "square", "path", "boundary_delta2", "wedge_circles",
)
VERIFY_RUNGS = {
    "corpus_small": VERIFY_SMALL,
    "corpus_medium": VERIFY_SMALL + (
        "delta2", "boundary_delta3", "cone_s1_3", "bowtie", "wedge_spheres"),
}
VERIFY_SUITES = ("calculus", "stiefel", "polar", "axioms")
# 15 jobs a round, each suite at two or three seeds, except the two slowest
# (stiefel and polar on the medium subset).  With 15 jobs the pooled p50
# and p90 fall in the middle of one job's samples (ranks 7.5 and 13.5 of
# 15), and the p90 job, polar on the medium subset, is a factor of two or
# more apart from its neighbours; a quantile that falls between two jobs,
# or in the tail of one, moves with every slow stretch of the machine.
VERIFY_JOBS = (
    [("corpus_small", s) for s in VERIFY_SUITES * 2 + ("calculus",)]
    + [("corpus_medium", s) for s in ("calculus", "axioms") * 2 + ("polar", "stiefel")]
)
VERIFY_TRIALS = 4
REPORT_EVERY = 3  # projection slots 0, 3, 6, ... also write --report
# Each projection job runs with PLANES random planes a round: a job's time
# depends on how often its sampler must draw again, so one plane per job
# would make the run's quantiles depend on the seed more than on the program.
PLANES = 3

WORKLOADS = ("moment", "stiefel_bounds", "projection", "verify")


def _fubini(n: int) -> int:
    """Ordered set partitions of n things: the flags ending at an (n-1)-simplex."""
    f = [1]
    for m in range(1, n + 1):
        f.append(sum(comb(m, j) * f[m - j] for j in range(1, m + 1)))
    return f[n]


def subdivided_size(k: Cx) -> int:
    return sum(n * _fubini(d + 1) for d, n in enumerate(k.counts()))


def rung_name(space: str, k: int) -> str:
    return f"{space}_sd{k}"


def build_ladder(corpus_dir: Path, rungs) -> tuple[dict[str, Cx], dict[str, Cx]]:
    """Rungs sd^k(space), relabelled to short ids, and each space's sd^0."""
    sd0: dict[str, Cx] = {}
    out: dict[str, Cx] = {}
    for space, depth in rungs:
        if space not in sd0:
            sd0[space] = load_corpus_complex(corpus_dir, space)
        k = sd0[space]
        for level in range(1, depth + 1):
            name = rung_name(space, level)
            if name not in out:
                out[name] = relabel(subdivide(k))
            k = out[name]
        out[rung_name(space, depth)] = k
    return {rung_name(s, d): out[rung_name(s, d)] for s, d in rungs}, sd0


def build(workload: str, seed: int, corpus_dir: Path, inputs_dir: Path):
    """Write the workload's inputs and return (round of jobs, rungs, sd0 complexes)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    inputs_dir.mkdir(parents=True, exist_ok=True)
    if workload == "verify":
        return _verify_round(rng, corpus_dir, inputs_dir), {}, {}
    rungs, sd0 = build_ladder(corpus_dir, RUNGS[workload])
    for name, k in rungs.items():
        (inputs_dir / f"{name}.json").write_text(complex_json(k))
    jobs = {"moment": _moment_round, "stiefel_bounds": _stiefel_round,
            "projection": _projection_round}[workload](rng, rungs, inputs_dir)
    return jobs, rungs, sd0


def _job(kind, rung, space, size, argv, outputs, i=None, **extra):
    return dict(kind=kind, rung=rung, space=space, i=i, size=size, argv=argv, outputs=outputs, **extra)


def _moment_round(rng, rungs, inputs_dir):
    jobs = []
    phase = rng.randrange(2)  # every other slot runs with alpha = 1
    for name, k in rungs.items():
        space = name.rsplit("_sd", 1)[0]
        for i in range(k.dim + 1):
            alpha1 = (len(jobs) + phase) % 2 == 0
            out = f"{{out}}/{name}_m{i}.json"
            argv = ["polar", "--complex", f"{{inp}}/{name}.json", "--dim", str(i), "--moment", "--out", out]
            fn = None
            if not alpha1:
                fn = f"{{inp}}/fn_{name}_{i}.json"
                (inputs_dir / fn.removeprefix("{inp}/")).write_text(function_json(random_euler_function(rng, k)))
                argv += ["--fn", fn]
            jobs.append(_job("moment", name, space, subdivided_size(k), argv,
                             {"out": out}, i, alpha1=alpha1, fn=fn))
    return jobs


def _stiefel_round(rng, rungs, inputs_dir):
    names = list(rungs)
    rng.shuffle(names)
    jobs = []
    for name in names:
        k = rungs[name]
        space = name.rsplit("_sd", 1)[0]
        kin, kp = f"{{inp}}/{name}.json", f"{{out}}/{name}_sub.json"
        size, size_p = len(k), subdivided_size(k)
        jobs.append(_job("subdivide", name, space, size,
                         ["subdivide", "--complex", kin, "--out", kp], {"out": kp}))
        for i in range(k.dim + 1):
            chain, witness = f"{{out}}/{name}_s{i}.json", f"{{out}}/{name}_w{i}.json"
            jobs.append(_job("stiefel", name, space, size_p,
                             ["stiefel", "--complex", kin, "--dim", str(i), "--out", chain],
                             {"out": chain}, i))
            jobs.append(_job("bounds", name, space, size_p,
                             ["bounds", "--complex", kp, "--chain", chain, "--witness", witness],
                             {"witness": witness}, i))
        jobs.append(_job("homology", name, space, size, ["homology", "--complex", kin], {}))
    return jobs


def _projection_round(rng, rungs, inputs_dir):
    jobs = []
    for name, k in rungs.items():
        space = name.rsplit("_sd", 1)[0]
        for i, plane in product(range(k.dim + 1), range(PLANES)):
            report = len(jobs) % REPORT_EVERY == 0
            out = f"{{out}}/{name}_p{i}_{plane}.json"
            argv = ["polar", "--complex", f"{{inp}}/{name}.json", "--dim", str(i), "--random-plane",
                    "--seed", str(rng.randrange(10 ** 6)), "--out", out]
            outputs = {"out": out}
            if report:
                outputs["report"] = f"{{out}}/{name}_r{i}_{plane}.json"
                argv += ["--report", outputs["report"]]
            jobs.append(_job("projection", name, space, len(k), argv, outputs, i, report=report))
    return jobs


def _verify_round(rng, corpus_dir, inputs_dir):
    index = {e["name"]: e for e in json.loads((corpus_dir / "index.json").read_text())["complexes"]}
    sizes = {}
    for name, members in VERIFY_RUNGS.items():
        d = inputs_dir / name
        d.mkdir(exist_ok=True)
        sizes[name] = 0
        for m in members:
            shutil.copyfile(corpus_dir / index[m]["file"], d / index[m]["file"])
            sizes[name] += len(load_corpus_complex(corpus_dir, m))
        (d / "index.json").write_text(
            json.dumps({"complexes": [index[m] for m in members]}, sort_keys=True) + "\n")
    jobs = []
    for name, suite in VERIFY_JOBS:
        argv = ["verify", "--suite", suite, "--seed", str(rng.randrange(10 ** 6)),
                "--trials", str(VERIFY_TRIALS), "--complexes", f"{{inp}}/{name}", "--format", "json"]
        jobs.append(_job("verify", name, name, sizes[name], argv, {}))
    return jobs
