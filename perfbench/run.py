"""Benchmark of the ``zipcone`` verbs.

Run from the repository root:

    python3 perfbench/run.py --workload h0-oracle --seed 1 --seconds 36 --trace 0

A closed loop with one client: a number of passes, set by ``--seconds``,
each run a job list drawn from the workload's domain by the seed and the
pass number (see ``workloads.py``), job after job, each in a fresh
interpreter with ``ZIPCONE_THREADS=1``, as a user runs the CLI, so import
time and cold caches are paid per job.  Every answer is checked after its
pass against the stdout digest recorded in ``expected.json``, and rank-2
h0 answers also against the graded ring dimension.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs the job list of pass 0 four times, the second and
fourth time with jobs that wrap the layer functions (``tracing.py``),
reports the per-layer metrics and the tracing overhead, and fails if the
two traced passes disagree on any count.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run environment, the job
lists and the details of each metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench-work"

JOB_TIMEOUT_S = 60
# no job or pass starts after this, so a run ends well within 180 s
RUN_DEADLINE_S = 140
MIN_PASSES = 2

END_TO_END = [("wall_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]


@dataclass
class JobRun:
    entry: dict
    start: float
    end: float
    rss_kb: int
    code: int | None        # None: not started before the run deadline
    timed_out: bool
    out_path: Path
    err_path: Path
    imported: float | None = None
    failure: str | None = None

    @property
    def latency(self):
        return self.end - self.start


def child_env(spans_path=None):
    """Environment of a job: the source tree, one worker, hash
    randomisation left on so hash-dependent output shows as a failure."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONHASHSEED", "PERFBENCH_SPANS")}
    env["PYTHONPATH"] = str(SRC)
    env["ZIPCONE_THREADS"] = "1"
    if spans_path is not None:
        env["PERFBENCH_SPANS"] = str(spans_path)
    return env


def run_job(entry, base, env, timeout=JOB_TIMEOUT_S):
    """Spawn one job, wait for its exit and take its resource usage."""
    out_path, err_path = base.with_suffix(".out"), base.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), *entry["argv"]],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], timeout)[0]
        finally:
            os.close(pidfd)
        if timed_out:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return JobRun(entry, start, end, usage.ru_maxrss, proc.returncode,
                  timed_out, out_path, err_path)


def run_pass(jobs, tag, deadline, traced=False):
    runs = []
    for i, entry in enumerate(jobs):
        base = WORK / ("%s-%03d" % (tag, i))
        if time.monotonic() > deadline:
            now = time.monotonic()
            runs.append(JobRun(entry, now, now, 0, None, False,
                               base.with_suffix(".out"),
                               base.with_suffix(".err")))
            continue
        spans = base.with_suffix(".spans") if traced else None
        runs.append(run_job(entry, base, child_env(spans)))
    return runs


def graded_dimension_check(argv, doc):
    """Rank-2 h0 answers must equal the monomial count of the graded ring."""
    from zipcones.sections import rzip_sp4_graded_dimension
    opts = dict(zip(argv[1::2], argv[2::2]))
    if opts.get("--n") != "2":
        return None
    p = int(opts["--p"])
    if argv[0] == "h0":
        pairs = [(doc["weight"], doc["dim"])]
    elif argv[0] == "sweep":
        pairs = [(row["weight"], row["oracle_dim"]) for row in doc["rows"]]
    else:
        return None
    for lam, dim in pairs:
        if lam[0] >= lam[1] and rzip_sp4_graded_dimension(lam, p) != dim:
            return "h0%s = %d, graded ring gives %d" % (
                tuple(lam), dim, rzip_sp4_graded_dimension(lam, p))
    return None


def exit_failure(run):
    """Why the job did not run to a clean exit, or None; also reads the
    import time the job reported."""
    if run.code is None:
        return "not started before the run deadline"
    err = run.err_path.read_bytes()
    first, _, _ = err.partition(b"\n")
    if first.startswith(b"perfbench-imported "):
        run.imported = float(first.split()[1])
    if run.timed_out:
        return "timed out after %d s" % JOB_TIMEOUT_S
    if run.code != 0:
        return "exit code %d: %s" % (run.code, err.decode(errors="replace")[-300:])
    if run.imported is None:
        return "no import time reported"
    return None


def check(run):
    """Why the job failed or answered wrongly, or None."""
    failure = exit_failure(run)
    if failure:
        return failure
    out = run.out_path.read_bytes()
    if hashlib.sha256(out).hexdigest() != run.entry["sha256"]:
        return "stdout differs from the recorded answer"
    if run.entry["argv"][0] in ("h0", "sweep"):
        return graded_dimension_check(run.entry["argv"], json.loads(out))
    return None


def tail(values):
    """Highest percentile with at least ten samples above it, as
    (value, percentile, samples, samples above)."""
    ordered = sorted(values)
    index = max(len(ordered) - 11, 0)
    return (ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered),
            len(ordered) - index - 1)


def end_to_end(passes):
    jobs = [r for runs in passes for r in runs]
    latencies = [r.latency for r in jobs]
    setups = [r.imported - r.start for r in jobs if r.imported is not None]
    walls = [runs[-1].end - runs[0].start for runs in passes]
    peaks = [max(r.rss_kb for r in runs) / 1024.0 for runs in passes]
    tail_value, percentile, samples, above = tail(latencies)
    metrics = {
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_value,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(peaks),
    }
    detail = {"passes": len(passes), "pass_wall_s": walls,
              "job_tail_s": {"percentile": percentile, "samples": samples,
                             "above": above},
              "peak_rss_mb_per_pass": peaks}
    return metrics, detail


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "zipcones").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args, lists, passes):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "job_timeout_s": JOB_TIMEOUT_S,
        "child_env": {"ZIPCONE_THREADS": "1", "PYTHONHASHSEED": "unset"},
        "jobs": [[" ".join(e["argv"]) for e in jobs] for jobs in lists],
    }


def passes_for(workload, seconds, domain):
    """Passes that fit in ``seconds`` at the domain's mean job cost; the
    same for every seed, so every seed pools the same number of samples."""
    nominal = 0.0
    for group, k in workloads.PICKS[workload].items():
        costs = [e["cost_s"] for e in workloads.pool(domain[workload], group)]
        nominal += sum(costs) if k is None else k * statistics.mean(costs)
    return max(MIN_PASSES, round(seconds / nominal))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.PICKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "zipcones" / "cli.py").is_file():
        print("perfbench: no zipcones sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    begun = time.monotonic()
    deadline = begun + RUN_DEADLINE_S
    domain = workloads.load_domain()
    # an untraced run draws a job list for every pass, so the pooled
    # latencies come from more inputs.  A traced run repeats one list, so
    # its two traced passes can be checked for equal counts, and alternates
    # untraced and traced passes, so both see the same machine for the
    # overhead ratio.
    if args.trace:
        plan = [False, True, False, True]
        lists = [workloads.job_list(args.workload, args.seed, domain, 0)] * 4
    else:
        plan = [False] * passes_for(args.workload, args.seconds, domain)
        lists = [workloads.job_list(args.workload, args.seed, domain, k)
                 for k in range(len(plan))]

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        # compiles the byte code and warms the file cache; not measured
        warm = run_job({"argv": ["rootdata", "--n", "2"]}, WORK / "warm",
                       child_env())
        if warm.code != 0:
            print("perfbench: warm-up job failed: %s"
                  % warm.err_path.read_text()[-300:], file=sys.stderr)
            return 2
        untraced, traced, layer_passes = [], [], []
        for k, (is_traced, jobs) in enumerate(zip(plan, lists)):
            runs = run_pass(jobs, "pass%d" % k, deadline, traced=is_traced)
            for run in runs:
                run.failure = check(run)
            (traced if is_traced else untraced).append(runs)
            if is_traced:
                dumps = [tracing.load(r.out_path.with_suffix(".spans"))
                         for r in runs if r.code is not None
                         and r.out_path.with_suffix(".spans").is_file()]
                layer_passes.append(tracing.summarize(dumps))
            for path in WORK.glob("pass%d-*" % k):
                path.unlink()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    all_runs = [r for runs in untraced + traced for r in runs]
    failures = [(" ".join(r.entry["argv"]), r.failure)
                for r in all_runs if r.failure]
    metrics, detail = end_to_end(untraced)
    units = dict(END_TO_END)
    if args.trace:
        metrics, units, layer_detail = per_layer(untraced, traced,
                                                 layer_passes)
        detail.update(layer_detail)
    detail["failed_ratio"] = len(failures) / len(all_runs)
    detail["failures"] = failures[:20]
    detail["elapsed_s"] = time.monotonic() - begun

    report(args, metrics, units, detail, len(all_runs), len(failures))
    print(json.dumps({"environment": environment(args, lists, len(plan)),
                      "detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not failures and not detail.get("count_mismatches"),
        "attempted": len(all_runs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def per_layer(untraced, traced, layer_passes):
    """Per-layer metrics of the traced passes, the counts on which the two
    passes disagree (the self-check) and the tracing overhead."""
    (first, unavailable), (second, _) = layer_passes
    mismatched = {name: [first[name], second[name]]
                  for name, unit in tracing.METRICS
                  if unit != "s" and first[name] != second[name]}
    metrics = {name: (first[name] + second[name]) / 2 if unit == "s"
               else first[name] for name, unit in tracing.METRICS}
    traced_wall = statistics.median(runs[-1].end - runs[0].start
                                    for runs in traced)
    untraced_wall = statistics.median(runs[-1].end - runs[0].start
                                      for runs in untraced)
    metrics["trace.overhead"] = traced_wall / untraced_wall
    units = dict(tracing.METRICS)
    units["trace.overhead"] = "1"
    layers = {}
    for name, _, _, _ in tracing.TARGETS:
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + metrics[name + ".self_s"]
    total = sum(layers.values())
    detail = {
        "unavailable": unavailable,
        "count_mismatches": mismatched,
        "trace_overhead": {"traced_wall_s": traced_wall,
                           "untraced_wall_s": untraced_wall},
        "layer_self_share": {layer: value / total if total else 0.0
                             for layer, value in sorted(
                                 layers.items(), key=lambda kv: -kv[1])},
        "should_move": tracing.SHOULD_MOVE,
    }
    return metrics, units, detail


def report(args, metrics, units, detail, attempted, failed):
    print("perfbench %s seed=%d trace=%d: %d untraced passes, %d traced"
          % (args.workload, args.seed, args.trace, detail["passes"],
             2 * args.trace))
    for name, value in metrics.items():
        if args.trace and value == 0:
            continue
        print("  %-48s %14.6f %s" % (name, value, units[name]))
    if not args.trace:
        tail_info = detail["job_tail_s"]
        print("  %-48s p%.1f of %d samples, %d above"
              % ("job_tail_s percentile", tail_info["percentile"],
                 tail_info["samples"], tail_info["above"]))
    print("  %-48s %14.6f 1 (%d of %d jobs)"
          % ("failed_ratio", detail["failed_ratio"], failed, attempted))
    if args.trace:
        for layer, share in detail["layer_self_share"].items():
            print("  layer %-42s %13.1f%% of traced self time"
                  % (layer, 100 * share))
    for job, why in detail["failures"]:
        print("  FAILED %s: %s" % (job, why))
    for name, pair in detail.get("count_mismatches", {}).items():
        print("  COUNT MISMATCH %s: %r then %r" % (name, *pair))


if __name__ == "__main__":
    sys.exit(main())
