"""openstrings benchmark: seeded job decks run as a closed loop.

    python3 bench/run.py --workload chain --seed 1 --seconds 25 --trace 0

One client runs one job at a time: each job is forked from this process,
which has already imported ``openstrings`` from ``src/``, and the next job
starts only when the previous one has been checked.  With ``--trace 0``
the deck is cycled for ``--seconds`` (always at least one full pass) and
the end-to-end metrics are printed; with ``--trace 1`` every job of one
pass runs once untraced and once traced, the outputs must match byte for
byte, and the per-layer metrics are printed.  The last stdout line is
the JSON result.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import decks
import runner

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
DIGESTS = ROOT / "bench" / "digests.json"
LAYER_MODULES = ("cli", "novikov", "ainfty", "morse", "maslov", "polytopes", "conductors")
SETUP_REPEATS = 7
HARD_CAP_S = 150          # stop cycling the deck after this long ...
DEADLINE_S = 170          # ... and kill any job still running at this point
STARTED = time.perf_counter()
DIGEST_CHARS = 12

# per-layer metrics: self time summed over the named spans (ms) ...
SELF_MS = {
    "novikov.construct_ms": ["novikov.NovikovSeries.__init__"],
    "novikov.mul_ms": ["novikov.NovikovSeries.__mul__"],
    "novikov.add_ms": ["novikov.NovikovSeries.__add__"],
    "novikov.invert_ms": ["novikov.invert"],
    "novikov.parse_ms": ["novikov.parse_series"],
    "novikov.format_ms": ["novikov.format_series"],
    "ainfty.datum_from_json_ms": ["ainfty.datum_from_json"],
    "ainfty.enumerate_words_ms": ["ainfty.enumerate_words"],
    "ainfty.assemble_differential_ms": ["ainfty.assemble_differential"],
    "ainfty.assemble_continuation_ms": ["ainfty.assemble_continuation"],
    "ainfty.assemble_homotopy_ms": ["ainfty.assemble_homotopy"],
    "ainfty.compose_continuations_ms": ["ainfty.compose_continuations"],
    "ainfty.homotopic_map_ms": ["ainfty.homotopic_map"],
    "ainfty.check_ms": ["ainfty.check_a_infinity", "ainfty.check_chain_map",
                        "ainfty.check_homotopy", "ainfty.check_composition",
                        "ainfty.check_augmentation"],
    "ainfty.cohomology_ms": ["ainfty.cohomology"],
    "morse.build_floer_complex_ms": ["morse.build_floer_complex"],
    "morse.sphere_fixture_ms": ["morse.sphere_fixture"],
    "maslov.path_from_json_ms": ["maslov.path_from_json"],
    "maslov.rs_index_report_ms": ["maslov.rs_index_report"],
    "maslov.string_index_ms": ["maslov.string_index"],
    "polytopes.enumerate_faces_ms": ["polytopes.enumerate_faces"],
    "polytopes.f_vector_ms": ["polytopes.f_vector"],
    "polytopes.signed_boundary_ms": ["polytopes.signed_boundary"],
    "polytopes.boundary_check_ms": ["polytopes.boundary_map_consistency"],
    "polytopes.facets_with_signs_ms": ["polytopes.facets_with_signs"],
    "conductors.is_exact_ms": ["conductors.is_exact"],
}
# ... calls of one span name ...
CALLS = {
    "cli.requests": "cli.main",
    "novikov.series_built": "novikov.NovikovSeries.__init__",
    "novikov.mul_calls": "novikov.NovikovSeries.__mul__",
    "novikov.add_calls": "novikov.NovikovSeries.__add__",
    "novikov.invert_calls": "novikov.invert",
    "polytopes.signed_boundary_calls": "polytopes.signed_boundary",
}
# ... counters observed at layer boundaries (see spans.py) ...
COUNTERS = (
    "cli.bad_input", "novikov.terms_out", "ainfty.words", "ainfty.differential_nnz",
    "ainfty.cohomology_cells", "ainfty.nonunit_pivots", "maslov.paths",
    "maslov.crossings", "maslov.irrational_crossings", "maslov.rejected",
    "polytopes.faces", "polytopes.boundary_entries",
)
MAXIMA = ("novikov.max_terms",)
# ... and each layer's total self time (cli.self_ms covers argparse, JSON
# load and report dump, the CLI's own work)
LAYER_SELF_MS = {f"{layer}.self_ms": layer for layer in LAYER_MODULES}
TRACE_MS = ("trace.untraced_ms", "trace.overhead_ms")
TRACE_COUNTS = ("trace.spans",)


def per_layer_metrics():
    """Name -> unit of every metric the traced run reports."""
    names = {n: "ms" for n in list(SELF_MS) + list(LAYER_SELF_MS) + list(TRACE_MS)}
    names.update({n: "count" for n in list(CALLS) + list(COUNTERS) + list(MAXIMA)
                  + list(TRACE_COUNTS)})
    return names


def load_program():
    """Import openstrings from this checkout's src/, nowhere else."""
    if not (SRC / "openstrings" / "__init__.py").is_file():
        raise ImportError(f"no openstrings package under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib
    mods = {name: importlib.import_module(f"openstrings.{name}") for name in LAYER_MODULES}
    pkg = sys.modules["openstrings"]
    if Path(pkg.__file__).resolve().parent != (SRC / "openstrings").resolve():
        raise ImportError(f"openstrings imported from {pkg.__file__}, not {SRC}")
    return mods


def measure_setup():
    """Median wall time of a fresh interpreter importing openstrings.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import openstrings.cli"]
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in sleeps of up to 50 ms and
        # the measured time snaps to that grid
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if attempt:                        # the first import writes bytecode
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def write_inputs(deck, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    for job in deck:
        if job["input"] is None:
            continue
        path = workdir / f"{job['id']}.json"
        path.write_text(json.dumps(job["input"], sort_keys=True), encoding="utf-8")
        job["path"] = str(path)
        job["argv"] = [str(path) if a == "{in}" else a for a in job["argv"]]


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def recorded_digests(workload, seed, deck_size):
    """Digests of every job's stdout recorded for this seed, if any."""
    if not DIGESTS.is_file():
        return None
    joined = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
    if joined is None:
        return None
    digests = [joined[i:i + DIGEST_CHARS] for i in range(0, len(joined), DIGEST_CHARS)]
    if len(digests) != deck_size:
        sys.stderr.write(f"ignoring stale digests: {len(digests)} recorded, "
                         f"{deck_size} jobs in the deck\n")
        return None
    return digests


def judge(job, res, state, digests):
    problems = checks.check(job, res["code"], res["out"], res["err"], state)
    if digests is not None and digest(res["out"]) != digests[job["id"]]:
        problems.append("stdout differs from the recorded digest")
    return problems


def report_problems(job, problems):
    for p in problems:
        sys.stderr.write(f"FAIL job {job['id']} {job['cls']}: {p}\n")


def job_timeout():
    return max(1.0, min(runner.JOB_TIMEOUT_S, DEADLINE_S - (time.perf_counter() - STARTED)))


def run_untraced(mods, deck, seconds, digests):
    setup = measure_setup()
    state, records = {}, []
    start = time.perf_counter()
    while True:
        job = deck[len(records) % len(deck)]
        res = runner.run(mods, job, timeout=job_timeout())
        problems = judge(job, res, state, digests)
        report_problems(job, problems)
        records.append((job["id"], res, not problems))
        elapsed = time.perf_counter() - start
        if len(records) >= len(deck) and elapsed >= seconds:
            break
        if time.perf_counter() - STARTED >= HARD_CAP_S:
            sys.stderr.write("stopped at the time cap before one full pass\n")
            break
    lat = sorted(r["wall_s"] * 1000 for _, r, _ in records)
    cpu_by_job = {}
    for jid, r, _ in records:
        cpu_by_job.setdefault(jid, []).append(r["cpu_s"])
    ok = sum(1 for *_, good in records if good)
    metrics = {
        "jobs_per_s": (len(records) / elapsed, "1/s"),
        "job_p50_ms": (statistics.median(lat), "ms"),
        "job_p90_ms": (statistics.quantiles(lat, n=10)[8], "ms"),
        "cpu_s": (sum(statistics.median(v) for v in cpu_by_job.values()), "s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for _, r, _ in records) / 1024, "MiB"),
        "ok_frac": (ok / len(records), "fraction"),
        "setup_s": (setup, "s"),
    }
    return len(records), len(records) - ok, metrics


def run_traced(mods, deck, digests, span_file):
    state, failed = {}, 0
    self_ns, calls, counters, maxima = {}, {}, {}, {}
    plain_s = traced_s = 0.0
    span_count, jobs_out = 0, []
    for job in deck:
        plain = runner.run(mods, job, timeout=job_timeout())
        traced = runner.run(mods, job, trace=True, timeout=job_timeout())
        problems = judge(job, plain, state, digests)
        if any(traced[k] != plain[k] for k in ("code", "out", "err")):
            problems.append("traced output differs from untraced output")
        report_problems(job, problems)
        failed += bool(problems)
        plain_s += plain["wall_s"]
        traced_s += traced["wall_s"]
        summary = traced["trace"] or {}
        for src, dst in ((summary.get("self_ns", {}), self_ns),
                         (summary.get("calls", {}), calls),
                         (summary.get("counters", {}), counters)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        for k, v in summary.get("maxima", {}).items():
            maxima[k] = max(maxima.get(k, 0), v)
        span_count += summary.get("span_count", 0)
        jobs_out.append({"job": job["id"], "cls": job["cls"],
                         "untraced_ms": plain["wall_s"] * 1000,
                         "traced_ms": traced["wall_s"] * 1000,
                         "self_ns": summary.get("self_ns", {}),
                         "calls": summary.get("calls", {}),
                         "spans": summary.get("spans", [])})
    span_file.parent.mkdir(parents=True, exist_ok=True)
    span_file.write_text(json.dumps(
        {"fields": ["id", "parent", "name", "start_ns", "end_ns", "depth"],
         "jobs": jobs_out}), encoding="utf-8")
    units = per_layer_metrics()
    values = {}
    for name, sources in SELF_MS.items():
        values[name] = sum(self_ns.get(s, 0) for s in sources) / 1e6
    for name, layer in LAYER_SELF_MS.items():
        values[name] = sum(v for k, v in self_ns.items()
                           if k.split(".", 1)[0] == layer) / 1e6
    for name, source in CALLS.items():
        values[name] = calls.get(source, 0)
    for name in COUNTERS:
        values[name] = counters.get(name, 0)
    for name in MAXIMA:
        values[name] = maxima.get(name, 0)
    values["trace.untraced_ms"] = plain_s * 1000
    values["trace.overhead_ms"] = (traced_s - plain_s) * 1000
    values["trace.spans"] = span_count
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    return len(deck), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=decks.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        mods = load_program()
    except ImportError as exc:
        sys.stderr.write(f"cannot load the program: {exc}\n")
        return 2
    deck = decks.build(args.workload, args.seed)
    digests = recorded_digests(args.workload, args.seed, len(deck))
    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        write_inputs(deck, workdir)
        if args.trace:
            span_file = OUT / f"spans-{args.workload}-{args.seed}.json"
            attempted, failed, metrics = run_traced(mods, deck, digests, span_file)
        else:
            attempted, failed, metrics = run_untraced(mods, deck, args.seconds, digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"deck={len(deck)} samples={attempted} failed={failed} "
          f"digests={'checked' if digests else 'none'}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
