"""Stage-chain benchmark for ganfs.

    python3 stagebench/run.py --workload gan-rank --seed 1 --trace 0
    python3 stagebench/run.py --workload all --seed 1

Run from the root of a source checkout; the program is run from ``src``
as it stands, nothing is installed. For the named workload the harness
writes a seeded raw capture, then:

- ``--trace 0`` launches ``--version`` several times (set-up time) and
  runs the stage chain through the CLI, one process per stage, as many
  times as fit in ``--seconds``. It prints the end-to-end metrics of
  BENCHMARK.json as medians over those chains.
- ``--trace 1`` runs the chain in one process, alternately untraced and
  traced, and prints the per-layer metrics of BENCHMARK.json.

Every chain's outputs are checked (checks.py); a stage that exits
non-zero or whose output fails a check counts as failed. Repeated chains
of one run share the seed, so their result artifacts must be
byte-identical. The last stdout line is the JSON result; the lines
before it record the environment, the result fingerprints and the
samples behind each median.
"""

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

from capture import CONSTANT, FEATURES, PLANTED, write_capture
from chain import THREADS, child_env, cli, launch, run_chain
from checks import check_run, fingerprint
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 3  # per chain, plus as many before the first
IMPORT_PROBES = 7
BUDGET_S = 165  # a run must end within 180 s
RANKING = ("preprocess", "train-gan", "rank")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import ganfs.cli; "
                "print(time.perf_counter() - t)")
ENV_PROBE = """
import json, platform, sys
import numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception:
    blas = "unknown"
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "blas": blas}))
"""


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(env):
    """Machine, interpreter, numpy/BLAS, thread pin and code identity."""
    out = json.loads(subprocess.run(
        [sys.executable, "-c", ENV_PROBE], env=env, capture_output=True,
        text=True, check=True, timeout=60).stdout)
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    out.update(nproc=os.cpu_count(), blas_threads=THREADS,
               executable=sys.executable, git_commit=commit,
               source_sha256=digest.hexdigest())
    return out


def summary(values):
    """Median, tail and sample count. The tail is the highest percentile
    with at least ten samples beyond it; below 21 samples that would not
    lie above the median, so the maximum is given."""
    ordered = sorted(values)
    tail = ordered[-11] if len(ordered) >= 21 else ordered[-1]
    return {"n": len(ordered), "median": statistics.median(ordered),
            "tail": tail, "values": ordered}


def compare_fingerprints(first, again):
    """Stage -> problems where a same-seed rerun changed a result."""
    out = {}
    for name, (stage, digest) in first.items():
        if again[name][1] != digest:
            out.setdefault(stage, []).append(f"{name} differs from the "
                                             "first same-seed chain")
    return out


def merge(into, found):
    for stage, problems in found.items():
        if problems:
            into.setdefault(stage, []).extend(problems)


def check_chain(run_dir, w, problems, first):
    """Check one chain's outputs into ``problems``; returns the run's
    reference fingerprint. The first chain of a run is checked in full;
    every later chain has the same seed and must reproduce its results."""
    found = fingerprint(run_dir, w)
    if first is None:
        merge(problems, check_run(run_dir, w, FEATURES, CONSTANT, PLANTED))
        return found
    merge(problems, compare_fingerprints(first, found))
    return first


def measure(w, inputs, cfg_path, seed, seconds, env, work, deadline):
    """End-to-end run through the CLI. Returns the metrics, the info
    line, each chain's problems by stage, the stage invocations attempted
    and the result fingerprint."""
    log = work / "stages.log"
    setup = []

    def set_up(n):
        """Launch ``--version`` n times. Launches are spread over the run
        so that their median follows the machine over the whole run."""
        for _ in range(n):
            s = launch("setup", cli("--version"), env, log, deadline)
            if s.returncode != 0:
                raise SystemExit(f"ganfs --version failed; see {log}")
            setup.append(s.seconds)

    set_up(1)
    setup.clear()  # the first launch compiles and warms the caches
    set_up(SETUP_LAUNCHES)
    stages = w.stages(inputs)
    chains, failures, first = [], [], None
    started = time.monotonic()
    while True:
        run_dir = work / f"run-{len(chains)}"
        launches = run_chain(stages, ["--config", str(cfg_path), "--seed",
                                      str(seed), "--out", str(run_dir)],
                             env, log, deadline)
        problems = {l.label: [f"exit code {l.returncode}"]
                    for l in launches if l.returncode != 0}
        first = check_chain(run_dir, w, problems, first)
        if chains:  # only the first chain's directory is kept
            shutil.rmtree(run_dir)
        failures.append(problems)
        chains.append(launches)
        set_up(SETUP_LAUNCHES)
        elapsed = time.monotonic() - started
        per_chain = elapsed / len(chains)
        if (elapsed + per_chain > seconds
                or time.monotonic() + per_chain > deadline):
            break

    series = {name: [] for name in ("pipeline_s", "rows_per_s",
                                    "peak_rss_mb")}
    stage_s = {}
    for launches in chains:
        wall = launches[-1].end - launches[0].start
        series["pipeline_s"].append(wall)
        series["rows_per_s"].append(w.capture.rows / wall)
        series["peak_rss_mb"].append(max(l.maxrss_mib for l in launches))
        for l in launches:
            stage_s.setdefault(l.label, []).append(l.seconds)
    series["setup_s"] = setup
    samples = {k: summary(v) for k, v in series.items()}
    metrics = {k: s["median"] for k, s in samples.items()}
    # a group's time is the sum of its stages' medians, so one slow
    # launch in one chain does not move it
    stage_median = {k: statistics.median(v) for k, v in stage_s.items()}
    metrics["ranking_s"] = sum(stage_median[k] for k in RANKING)
    metrics["compare_s"] = sum(
        v for k, v in stage_median.items()
        if k.startswith("baseline:") or k in ("evaluate", "report"))
    info = {"samples": samples, "stage_s": stage_median}
    attempted = sum(len(c) for c in chains)
    return metrics, info, failures, attempted, first


def traced(w, inputs, cfg_path, seed, seconds, env, work, deadline):
    """In-process traced run; returns what ``measure`` returns."""
    probes = []
    for _ in range(IMPORT_PROBES + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise SystemExit(f"importing ganfs.cli failed:\n{done.stderr}")
        probes.append(float(done.stdout))
    job = {"workload": w.name, "seed": seed, "config": str(cfg_path),
           "inputs": [str(p) for p in inputs], "baselines": list(w.baselines),
           "synth_n": w.synth_n, "seconds": seconds,
           "budget_s": max(deadline - time.monotonic() - 10.0, 1.0),
           "out_base": str(work), "spans": str(work / "spans.jsonl"),
           "result": str(work / "trace.json")}
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job))
    log = work / "trace.log"
    child = launch("trace", [sys.executable, str(HERE / "tracing.py"),
                             str(job_path)], env, log, deadline)
    if child.returncode != 0:
        raise SystemExit(f"traced run failed with exit code "
                         f"{child.returncode}; see {log}")
    result = json.loads((work / "trace.json").read_text())
    failures, first = [], None
    for run in result["runs"]:
        problems = {label: [msg] for label, msg in run["errors"].items()}
        first = check_chain(Path(run["dir"]), w, problems, first)
        failures.append(problems)
    metrics = dict(result["metrics"])
    metrics["cli.import_s"] = statistics.median(probes[1:])
    info = {"chains": {"traced_s": result["traced"],
                       "untraced_s": result["untraced"]},
            "spans": str(work / "spans.jsonl")}
    attempted = len(result["runs"]) * len(w.stages(inputs))
    return metrics, info, failures, attempted, first


def run_one(name, seed, seconds, trace):
    """One benchmark run; returns the result object."""
    deadline = time.monotonic() + BUDGET_S
    w = WORKLOADS[name]
    work = ROOT / ".stagebench" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = write_capture(work / "capture", w.capture, seed)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(w.config))
    env = child_env(ROOT)
    print(json.dumps({"env": environment(env)}), flush=True)
    body = traced if trace else measure
    metrics, info, failures, attempted, first = body(
        w, inputs, cfg_path, seed, seconds, env, work, deadline)
    failed = sum(len(p) for p in failures)
    wanted = spec()["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    print(json.dumps({"fingerprint": {k: v for k, (_, v) in
                                      first.items()}}))
    print(json.dumps({**info, "failed_ratio": failed / attempted,
                      "problems": [p for p in failures if p]}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in wanted}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int,
                        help="measuring time (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ganfs" / "cli.py").is_file():
        print(f"error: no ganfs source under {ROOT / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    seconds = args.seconds or spec()["run_seconds"]
    if args.workload != "all":
        result = run_one(args.workload, args.seed, seconds, args.trace)
        print(json.dumps(result))
        return 0
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_one(name, args.seed, seconds, trace)
            ok = ok and result["correct"]
            print(json.dumps({"workload": name, "trace": trace, **result}),
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
