"""The traced benchmark run on cloud-verify seed 0 passes every output check.

Its counts (simplices per dimension read from ``Filtration.simplices``,
oracle evaluations, edges kept, diagram entries, matching pairs) must equal
``bench/reference.json``; any difference counts as a failed operation.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_cloud_verify_matches_reference():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cloud-verify", "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, proc.stderr
