#!/usr/bin/env python3
"""Golden-fixture tests for prooflab-lint.

Proves every rule is *live*: each `*_bad` fixture must produce exactly the
expected findings for exactly its rule, and each `*_good` fixture — the
sanctioned way to write the same code — must lint clean.  A rule that
stops firing on its bad fixture (after a lint refactor, say) fails here
before it silently stops protecting src/.

Run:  python3 tools/lint/test_fixtures.py [--cxx g++]
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, "prooflab_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")

# (fixture, rule, expected finding count).  Bad fixtures state how many
# distinct violations they stage; good fixtures expect zero.
CASES = [
    ("r1_bad.cpp", "R1", 2),
    ("r1_good.cpp", "R1", 0),
    ("r2_bad.cpp", "R2", 3),
    ("r2_good.cpp", "R2", 0),
    ("r3_bad.cpp", "R3", 3),
    ("r3_good.cpp", "R3", 0),
    # The intern table is a member declared in the sibling header.
    ("r3_member_bad.cpp", "R3", 1),
    ("r4_bad.cpp", "R4", 2),
    ("r4_good.cpp", "R4", 0),
    ("r5_bad.cpp", "R5", 1),
    ("r5_good.cpp", "R5", 0),
    ("r6_bad.hpp", "R6", 1),
    ("r6_good.hpp", "R6", 0),
    # Failpoint discipline rides on R1 (hot leaves) and R5 (decoders); one
    # staged violation of each in the bad fixture, the sanctioned boundary
    # placement in the good one.
    ("r_failpoint_bad.cpp", "R1", 1),
    ("r_failpoint_bad.cpp", "R5", 1),
    ("r_failpoint_good.cpp", "R1", 0),
    ("r_failpoint_good.cpp", "R5", 0),
]


def run_lint(args):
    return subprocess.run(
        [sys.executable, LINT] + args,
        capture_output=True,
        text=True,
        cwd=HERE,
    )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--cxx", default=os.environ.get("CXX", "c++"))
    opts = ap.parse_args()

    failures = []

    def check(label, ok, detail=""):
        status = "ok" if ok else "FAIL"
        print(f"[{status}] {label}")
        if not ok:
            failures.append(f"{label}\n{detail}")

    for fixture, rule, expected in CASES:
        path = os.path.join("fixtures", fixture)
        args = [path, "--rules", rule, "--cxx", opts.cxx, "-I", "fixtures"]
        if rule == "R4":
            args += ["--r4-scope", ""]  # fixtures live outside src/pls etc.
        proc = run_lint(args)
        findings = [l for l in proc.stdout.splitlines() if f"[{rule}]" in l]
        stray = [
            l
            for l in proc.stdout.splitlines()
            if l.strip() and f"[{rule}]" not in l
        ]
        ok = (
            len(findings) == expected
            and not stray
            and proc.returncode == (1 if expected else 0)
        )
        check(
            f"{fixture}: {rule} x{expected}",
            ok,
            f"exit={proc.returncode}\nstdout:\n{proc.stdout}stderr:\n{proc.stderr}",
        )

    # allow() outside the enforced root suppresses the finding entirely.
    proc = run_lint(
        [
            os.path.join("fixtures", "r_allow.cpp"),
            "--rules",
            "R4",
            "--r4-scope",
            "",
        ]
    )
    check(
        "r_allow.cpp: allow(R4) suppresses outside enforce-root",
        proc.returncode == 0 and not proc.stdout.strip(),
        f"exit={proc.returncode}\nstdout:\n{proc.stdout}",
    )

    # The same file under the enforced root blows the zero allow budget: the
    # suppression itself becomes the finding.
    proc = run_lint(
        [
            os.path.join("fixtures", "r_allow.cpp"),
            "--rules",
            "R4",
            "--r4-scope",
            "",
            "--enforce-root",
            "fixtures",
        ]
    )
    check(
        "r_allow.cpp: allow(R4) counted against zero budget under enforce-root",
        proc.returncode == 1 and "budget" in proc.stdout,
        f"exit={proc.returncode}\nstdout:\n{proc.stdout}",
    )

    if failures:
        print(f"\n{len(failures)} fixture check(s) failed:", file=sys.stderr)
        for f in failures:
            print(f"--- {f}", file=sys.stderr)
        return 1
    print(f"\nall {len(CASES) + 2} fixture checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
