"""Workloads of the benchmark: sampling domains and seeded job lists.

Every job is the argument list of one ``zipcone`` invocation.  The
sampling domain of each workload, with the expected stdout digest and the
cost of every job in it, is stored in ``expected.json`` (written by
``record.py``).  A seed picks one job list from that domain; the program
only ever sees the generated command lines.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

EXPECTED = Path(__file__).with_name("expected.json")

# jobs drawn per pass from each group of the domain; None takes the whole
# group.  A group sorted by recorded cost is cut into as many strata as it
# has picks, and each pick comes from the central WINDOW share of its
# stratum: seeds vary the inputs, while every job list keeps the same
# cost profile, so the seed moves the end-to-end metrics little.  The
# counts put the 11th slowest job of a run, which ``job_tail_s`` reports,
# inside a group of jobs of similar cost (the (2,3) h0 and the slowest
# (3,2) ones; the rank-3 vlambda with invariants) rather than at a gap
# between two groups, where one slow job or the seed would move it most.
WINDOW = 0.3
PICKS = {
    "h0-oracle": {"h0-deep": None, "h0-n3-p2": 5, "h0-n2-p2": 5,
                  "h0-n2-p3": 3, "sweep": 1},
    "module-compare": {"vlambda-n3-p2-fixed": 4, "vlambda-n3-p2-free": 3,
                       "vlambda-n2-p3": 2,
                       "vlambda-n2-p5": 2, "vlambda-n2-p7": 2},
    "exact-catalog": {"catalog": None},
}
# groups whose picks come only from a share (from, to) of their cost
# order, drawn without strata since the costs in it are close.  The
# rank-3 vlambda jobs with invariants give the slowest samples of a
# module-compare run, among them the one job_tail_s reports.  Their costs
# fall in two modes: 1.2-1.4 s for the twelve weights of Weyl dimension
# 15 and 1.7-3.1 s for the others.  Picks from both put that sample at the
# gap between the modes; picks from the first differ by less than 1.2x.
BAND = {"vlambda-n3-p2-fixed": (0.0, 0.4)}


def load_domain(path=EXPECTED):
    """{workload: {group: [entry, ...]}} with entries as recorded."""
    with open(path) as fh:
        return json.load(fh)["workloads"]


def pool(groups, group):
    """The entries of ``group`` that picks come from, sorted by cost."""
    entries = sorted(groups[group], key=lambda e: (e["cost_s"], e["argv"]))
    start, stop = BAND.get(group, (0.0, 1.0))
    return entries[round(start * len(entries)):round(stop * len(entries))]


def job_list(workload, seed, domain, pass_no):
    """The list of domain entries that pass ``pass_no`` of ``workload``
    runs for ``seed``."""
    rng = random.Random("%s/%d/%d" % (workload, seed, pass_no))
    groups = domain[workload]
    picked = []
    for group, k in PICKS[workload].items():
        entries = pool(groups, group)
        if k is None:
            picked.extend(entries)
            continue
        if group in BAND:
            picked.extend(rng.sample(entries, k))
            continue
        for i in range(k):
            middle, half = (i + 0.5) * len(entries) / k, WINDOW * len(entries) / k / 2
            lo = int(middle - half)
            hi = max(lo + 1, round(middle + half))
            picked.append(entries[rng.randrange(lo, hi)])
    rng.shuffle(picked)
    return picked
