#!/usr/bin/env python3
"""Build the repository benchmark from source and run one measurement.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve_grid --seed 1 --seconds 20 --trace 0

The OCaml program is built with dune into the build directory
(`$CARGO_TARGET_DIR`, default `.bench_build`), then run once. Its last
line of standard output is the result object; this script passes the
program's output through unchanged and exits with its status. With
`--trace 1` the spans of the run are written under
`<build dir>/perfbench-spans/`. `--short` selects tiny inputs (the
benchmark's own test uses it).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = "./perfbench/ocaml/perfbench.exe"
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    if ROOT not in d.parents:
        fail(f"build directory {d} is outside the checkout")
    return d


def source_id():
    """The commit when the checkout is a git repository, else a digest
    of the library sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "lib").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:16]


def build(bdir):
    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib").is_dir():
        fail("no dune-project and lib/ beside perfbench/: run from a checkout of the repository")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        out = subprocess.run(
            ["dune", "build", "--root", str(ROOT), "--build-dir", str(bdir), TARGET],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        fail("build failed")
    exe = bdir / "default" / "perfbench" / "ocaml" / "perfbench.exe"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--short", action="store_true")
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    run_dir = bdir / f"perfbench-run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    cmd = [
        str(exe), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", args.trace,
        "--run-dir", str(run_dir.relative_to(ROOT)),
    ]
    if args.short:
        cmd.append("--short")
    if args.trace == "1":
        spans = bdir / "perfbench-spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str((spans / f"{args.workload}-seed{args.seed}.jsonl").relative_to(ROOT))]
    env = dict(os.environ, PERFBENCH_COMMIT=source_id())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        shutil.rmtree(run_dir, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT} s")
    shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"benchmark exited with status {proc.returncode}")
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()


if __name__ == "__main__":
    main()
