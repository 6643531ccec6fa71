#!/usr/bin/env python3
"""Check scripts/results_diff.py against the fixture directories beside it.

    tests/results_diff_test.py

results_diff_fixtures/old is the baseline of the CASES; each of their
directories differs from it in one way. results_diff_fixtures/folded
changes many values under one folded path of folded_old. Exits 0 when
every case gives the expected exit code and prints what it must, 1
otherwise. Standard library only.
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

# 24 bucket changes under one folded path print as one line with their
# count and the first change; a lone change and each CSV cell print as
# they are.
FOLDED = ("folded", 1, [
    "changed runs[].buckets[] (24 values), first runs[0].buckets[0]: "
    "1 -> 2",
    "changed runs[2].p99_us: 9.5 -> 9.75",
    "changed row 1 col 2 (erases): 412 -> 400",
    "changed row 2 col 2 (erases): 781 -> 752",
    "27 changed values"])


def check(base, name, want_code, want_lines):
    """Diff fixture `base` against `name`; True when the report matches."""
    proc = subprocess.run(
        [sys.executable, SCRIPT, os.path.join(FIXTURES, base),
         os.path.join(FIXTURES, name)],
        capture_output=True, text=True)
    problems = []
    if proc.returncode != want_code:
        problems.append("exit %d, want %d" % (proc.returncode, want_code))
    for line in want_lines:
        if line not in proc.stdout:
            problems.append("missing %r" % line)
    # Every printed change is one of the expected lines: nothing folded
    # is also listed value by value.
    extra = [l for l in proc.stdout.splitlines()
             if l.startswith("  changed") and l.strip() not in want_lines]
    problems += ["unexpected %r" % l for l in extra]
    if problems:
        print("FAIL %s: %s\n%s%s" % (name, "; ".join(problems),
                                     proc.stdout, proc.stderr))
        return False
    print("ok   %s" % name)
    return True


def main():
    results = [check("old", *case) for case in CASES]
    results.append(check("folded_old", *FOLDED))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
