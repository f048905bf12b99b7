"""Replay every job recorded in ``perfbench/expected.json`` in process.

Each job runs through ``cli.main`` and must exit 0 with stdout of the
recorded sha256.  The benchmark refuses a change whose digests drift;
this catches it before.  The file is only read, never re-recorded.
"""

import hashlib
import json
from pathlib import Path

import pytest

from zipcones import cli

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
DOMAINS = {(workload, domain): jobs
           for workload, domains in json.loads(EXPECTED.read_text())
           ["workloads"].items()
           for domain, jobs in domains.items()}


@pytest.mark.parametrize("key", sorted(DOMAINS), ids="/".join)
def test_recorded_jobs_print_their_digest(key, capsys):
    wrong = []
    for job in DOMAINS[key]:
        code = cli.main(list(job["argv"]))
        out = capsys.readouterr().out.encode()
        if code != 0 or hashlib.sha256(out).hexdigest() != job["sha256"]:
            wrong.append((" ".join(job["argv"]), code))
    assert not wrong, wrong
