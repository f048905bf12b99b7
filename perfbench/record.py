"""Record the sampling domain of every workload into ``expected.json``.

Run from the repository root, on a commit whose answers are trusted:

    python3 perfbench/record.py [WORKLOAD ...]

With workload names, only those are recorded again and the others are
kept as they are in the file.

Each job of each domain runs ``ROUNDS`` times, as the benchmark runs it,
in whole rounds over the domains.  The file keeps its argument list, the
sha256 and size of its stdout, and the median of its latencies on the
recording machine (``cost_s``), which ``workloads.py`` uses to stratify
its picks; a single run can be a quarter off.  Recording refuses a job
that fails, whose stdout differs between its runs, or whose rank-2 h0
answers disagree with the graded ring dimension.  Re-record
only when a change to the answers is intended, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import sys

import run
import workloads

ROUNDS = 3


def dominant(lam):
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def h0_jobs(n, p, box, min_monomials, max_monomials, max_degree):
    from zipcones.errors import GuardExceededError
    from zipcones.sections import enumerate_weight_monomials
    jobs = []
    for lam in itertools.product(box, repeat=n):
        if not dominant(lam) or sum(lam) % (1 - p) or sum(lam) // (1 - p) > max_degree:
            continue
        try:
            count = len(enumerate_weight_monomials(lam, n, p, cap=max_monomials))
        except GuardExceededError:
            continue
        if min_monomials <= count <= max_monomials:
            jobs.append(["h0", "--n", str(n), "--p", str(p),
                         "--weight", ",".join(map(str, lam))])
    return jobs


def vlambda_jobs(n, p, weights):
    return [["vlambda", "--n", str(n), "--p", str(p),
             "--weight", ",".join(map(str, lam))] for lam in weights]


def domains():
    """{workload: {group: [argv, ...]}}; the groups of ``workloads.PICKS``.

    The vlambda-n3-p2 weights are split into ``-fixed`` and ``-free`` by
    whether the recorded answer has a nonzero invariant space, because
    only then does the all-elements re-check run (1-3 s against 0.3 s).
    Weyl dimensions above 45 are left out: their re-check takes 3-13 s,
    and two or three such jobs would make up a whole pass.

    ``h0-deep`` (795 monomials) runs in every h0-oracle pass.  It needs
    more memory than any job of the other h0 groups, whose rank-3 weights
    stop at 700 monomials, so the peak RSS of a pass does not depend on
    the seed.
    """
    from zipcones.modules import weyl_dimension
    rank3 = [lam for lam in itertools.product(range(-4, 5), repeat=3)
             if dominant(lam) and lam[2] in (-4, -3, -2)
             and 15 <= weyl_dimension(lam) <= 45]
    rank2 = [(a, b) for b in (-3, -1, 0) for a in range(b + 2, b + 13)]
    catalog = [
        ["slice", "--cone", "pol", "--n", "3", "--p", "2"],
        ["slice", "--cone", "schubert", "--n", "3", "--p", "3"],
        ["slice", "--cone", "sigma1", "--n", "3", "--p", "5"],
        ["slice", "--cone", "sigma1p", "--n", "3", "--p", "2"],
        ["cone", "--name", "gs", "--n", "3", "--p", "2", "--emit", "halfspaces"],
        ["cone", "--name", "schubert-sat", "--n", "3", "--p", "2", "--emit", "halfspaces"],
        ["cone", "--name", "hw", "--n", "3", "--p", "3", "--emit", "halfspaces"],
        ["cone", "--name", "muord-sat", "--n", "4", "--p", "2", "--emit", "halfspaces"],
        ["cone", "--name", "zip-sp4-sat", "--p", "5", "--emit", "halfspaces"],
        ["cone", "--name", "zip-sp6-sat", "--p", "2", "--emit", "halfspaces"],
    ]
    catalog += [["gamma", "--n", str(n), "--p", str(p)]
                for n, p in ((3, 2), (3, 3), (3, 5), (4, 2), (4, 3), (4, 5))]
    catalog += [["verify-section", "--name", name, "--n", str(n), "--p", str(p)]
                for name, n, p in (
                    ("rhosp6", 3, 7), ("thetasp6", 3, 7),
                    ("tausp6", 3, 5), ("rhosp6", 3, 5), ("f2sp6", 3, 7),
                    ("f1sp6", 3, 3), ("epsilonsp6", 3, 2), ("delta3", 3, 5),
                    ("alphasp4", 2, 5), ("hasse", 2, 3))]
    return {
        "h0-oracle": {
            "h0-deep": [["h0", "--n", "3", "--p", "2", "--weight", "-4,-4,-4"]],
            "h0-n3-p2": h0_jobs(3, 2, range(-7, 4), 100, 700, 99),
            "h0-n2-p2": h0_jobs(2, 2, range(-30, 11), 100, 2000, 36),
            "h0-n2-p3": h0_jobs(2, 3, range(-45, 16), 100, 2000, 35),
            "sweep": [["sweep", "--n", "2", "--p", str(p), "--box", "-%d..%d" % (k, k),
                       "--compare", "zip-sp4"] for p in (2, 3) for k in range(4, 9)],
        },
        "module-compare": {
            "vlambda-n3-p2": vlambda_jobs(3, 2, rank3),
            "vlambda-n2-p3": vlambda_jobs(2, 3, rank2),
            "vlambda-n2-p5": vlambda_jobs(2, 5, rank2),
            "vlambda-n2-p7": vlambda_jobs(2, 7, rank2),
        },
        "exact-catalog": {"catalog": catalog},
    }


def run_once(argv):
    """Stdout and latency of one run of the job; refuses a failed job."""
    result = run.run_job({"argv": argv}, run.WORK / "record", run.child_env())
    failure = run.exit_failure(result)
    if failure:
        raise SystemExit("%s: %s" % (" ".join(argv), failure))
    return result.out_path.read_bytes(), result.latency


def main(names):
    sys.path.insert(0, str(run.SRC))
    recorded = workloads.load_domain() if names else {}
    jobs = [(workload, group, argv)
            for workload, groups in domains().items()
            if not names or workload in names
            for group, argvs in groups.items() for argv in argvs]
    outs, latencies = {}, {}
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    try:
        # whole rounds over the domain, so that a slow spell of the machine
        # raises one run of many jobs rather than every run of a few
        for _ in range(ROUNDS):
            for i, (_, group, argv) in enumerate(jobs):
                out, latency = run_once(argv)
                if i not in outs:
                    outs[i] = out
                    if argv[0] in ("h0", "sweep"):
                        failure = run.graded_dimension_check(
                            argv, json.loads(out))
                        if failure:
                            raise SystemExit("%s: %s"
                                             % (" ".join(argv), failure))
                elif out != outs[i]:
                    raise SystemExit("%s: stdout differs between runs"
                                     % " ".join(argv))
                latencies.setdefault(i, []).append(latency)
                print("%-22s %6.2fs %s" % (group, latency, " ".join(argv)),
                      flush=True)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    for workload in {workload for workload, _, _ in jobs}:
        recorded[workload] = {}
    for i, (workload, group, argv) in enumerate(jobs):
        out = outs[i]
        if group == "vlambda-n3-p2":
            fixed = json.loads(out)["dim_invariants"] > 0
            group += "-fixed" if fixed else "-free"
        recorded[workload].setdefault(group, []).append({
            "argv": argv, "sha256": hashlib.sha256(out).hexdigest(),
            "bytes": len(out),
            "cost_s": round(statistics.median(latencies[i]), 3)})
    doc = {"recorded_with": {"python": platform.python_version(),
                             "nproc": os.cpu_count(),
                             "platform": platform.platform(),
                             "git_commit": run.git_commit(),
                             "source_sha256": run.source_digest()},
           "workloads": recorded}
    with open(workloads.EXPECTED, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
