#!/usr/bin/env python3
"""Check scripts/results_diff.py against the fixture directories beside it.

    tests/results_diff_test.py

results_diff_fixtures/old is the baseline; each other directory differs
from it in one way. Exits 0 when every case gives the expected exit code
and prints what it must, 1 otherwise. Standard library only.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(os.path.dirname(HERE), "scripts", "results_diff.py")
FIXTURES = os.path.join(HERE, "results_diff_fixtures")

# (directory, expected exit code, lines the report must contain)
CASES = [
    ("same", 0, ["0 changed values, 0 removed keys or files, "
                 "0 added keys or files"]),
    ("value", 1, ["changed runs[1].p99_us: 7.25 -> 8.5",
                  "1 changed values"]),
    ("cell", 1, ["changed row 2 col 2 (erases): 781 -> 752",
                 "1 changed values"]),
    ("removed", 1, ["removed runs[].p99_us (2)", "1 removed keys"]),
    ("dropped", 1, ["removed runs[] (1)", "1 removed keys"]),
    ("added", 0, ["added   runs[].p999_us (2)", "added   runs[] (1)",
                  "0 changed values, 0 removed keys or files, "
                  "2 added keys or files"]),
]


def main():
    failures = 0
    for name, want_code, want_lines in CASES:
        proc = subprocess.run(
            [sys.executable, SCRIPT, os.path.join(FIXTURES, "old"),
             os.path.join(FIXTURES, name)],
            capture_output=True, text=True)
        problems = []
        if proc.returncode != want_code:
            problems.append("exit %d, want %d" % (proc.returncode, want_code))
        for line in want_lines:
            if line not in proc.stdout:
                problems.append("missing %r" % line)
        if problems:
            failures += 1
            print("FAIL %s: %s\n%s%s" % (name, "; ".join(problems),
                                         proc.stdout, proc.stderr))
        else:
            print("ok   %s" % name)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
