#!/usr/bin/env python3
"""Mako benchmark: build, run one workload, gate it, print the result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hf_tzvp_water3 --seed 1 \
        --seconds 20 --trace 0

The library and the measuring program (perfbench/mako_perfbench.cpp) are
built from the checkout's sources into .bench_build/perfbench with the
repository's own Release configuration.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer metrics of a traced replay
(and a Chrome trace-event file under .bench_build/perfbench/traces).

Correctness references are computed by the build under test outside every
timed region and cached under .bench_build.  perfbench/refs.json stores
them for some seeds to save that computation; a run that fails its gate
against a stored value is measured again against the build's own
references (see references()).  Exact counts (GEMM calls, quartets, screened
quartets, plan builds and hits, iterations) must repeat for a seed across
runs of one build; a mismatch is a benchmark error.

Exit codes: 0 pass; 1 a correctness gate failed (result still printed);
2 benchmark error or build failure (no result printed).

Maintenance: `--refresh-refs --seeds 0-31` recomputes the stored references
of --workload for those seeds, one after another, into perfbench/refs.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "mako_perfbench")
REFS_FILE = os.path.join(BENCH_DIR, "refs.json")

WORKLOADS = ("hf_tzvp_water3", "b3lyp_631g_quant", "batch_small_mix")
DEFAULT_SEED = 1
HOLDOUT_SEED = 1009
# Workloads with stored references.  b3lyp: the converged FP64 energy, which
# depends only on the input.  hf: the reference engine's energy after the
# fixed iterations, which also depends on the SCF path (guess, DIIS); a
# build that takes another path fails against it and is then gated against
# its own reference engine (~50 s per seed, so storing them keeps today's
# runs short).  Batch references gate at 1e-10 Eh against solo runs of the
# same build, so they are always computed.
STORED_REF_WORKLOADS = ("hf_tzvp_water3", "b3lyp_631g_quant")
# A run after the first (which builds) must end within 180 s: references
# and measurement get this much after the build step, leaving room for the
# build check, start-up and output.
RUN_DEADLINE_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the measuring program; logs to a file."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(BUILD_DIR, f)) for f in generated):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "mako_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_sha256():
    """Content hash of the program's sources (the checkout is not always a
    git repository, so this identifies what was measured)."""
    h = hashlib.sha256()
    tops = ["CMakeLists.txt", "src", os.path.relpath(BENCH_DIR, ROOT)]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            h.update(file_sha256(f).encode())
    return h.hexdigest()


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=ROOT, capture_output=True, text=True)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return None
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        return head.stdout.strip() if head.returncode == 0 else None
    except OSError:
        return None


def remaining(deadline):
    left = deadline - time.time()
    if left <= 0:
        fail("run exceeded %d s" % RUN_DEADLINE_S)
    return left


def compute_refs(workload, seed, deadline=None):
    try:
        proc = subprocess.run(
            [BINARY, "reference", "--workload", workload, "--seed",
             str(seed)], capture_output=True, text=True,
            timeout=None if deadline is None else remaining(deadline))
    except subprocess.TimeoutExpired:
        fail("reference computation exceeded the run's %d s" % RUN_DEADLINE_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("reference computation failed for %s seed %d" % (workload, seed))
    return json.loads(proc.stdout.strip().splitlines()[-1])["refs"]


def load_json(path, default):
    if not os.path.exists(path):
        return default
    with open(path) as f:
        return json.load(f)


def write_json(path, data):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def references(workload, seed, cache_dir, deadline, stored_ok=True):
    """Returns (refs, own): the build's own references when they are cached,
    else the stored ones (own=False) when stored_ok, else the build's own,
    computed now and cached."""
    path = os.path.join(cache_dir, "refs-%s-%d.json" % (workload, seed))
    refs = load_json(path, None)
    if refs is not None:
        return refs, True
    if stored_ok and workload in STORED_REF_WORKLOADS:
        stored = load_json(REFS_FILE, {}).get(workload, {}).get(str(seed))
        if stored is not None:
            return stored, False
    refs = compute_refs(workload, seed, deadline)
    write_json(path, refs)
    return refs, True


def check_counts(record, workload, seed, cache_dir):
    """Exact counts must repeat for one seed across runs of one build."""
    path = os.path.join(cache_dir, "counts-%s-%d.json" % (workload, seed))
    seen = load_json(path, None)
    if seen is None:
        write_json(path, record["counts"])
    elif seen != record["counts"]:
        fail("exact counts did not repeat for seed %d: %s vs %s"
             % (seed, json.dumps(seen), json.dumps(record["counts"])))


def run_measurement(args, refs, deadline):
    cmd = [BINARY, "measure", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    for key, energy in sorted(refs.items()):
        cmd += ["--ref", "%s=%r" % (key, energy)]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        fail("measurement exceeded the run's %d s" % RUN_DEADLINE_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("measurement failed (exit %d)" % proc.returncode)
    return json.loads(lines[-1])


def measure(args):
    build()
    deadline = time.time() + RUN_DEADLINE_S
    cache_dir = os.path.join(BUILD_DIR, "cache", file_sha256(BINARY)[:16])
    refs, own = references(args.workload, args.seed, cache_dir, deadline)
    record = run_measurement(args, refs, deadline)
    if not record["correct"] and not own:
        # The stored references may come from another SCF path; the gate
        # that counts is against this build's own.
        print("perfbench: gate failed against stored references; measuring "
              "again against this build's own", file=sys.stderr)
        refs, _ = references(args.workload, args.seed, cache_dir, deadline,
                             stored_ok=False)
        record = run_measurement(args, refs, deadline)
    check_counts(record, args.workload, args.seed, cache_dir)

    record["provenance"].update({
        "git_sha": git_sha(), "source_sha256": source_sha256(),
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED})
    write_json(os.path.join(BUILD_DIR, "records", "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace)), record)
    print(json.dumps({k: record[k] for k in
                      ("provenance", "counts", "notes", "gate_failures")}))
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def refresh_refs(args):
    if args.workload not in STORED_REF_WORKLOADS:
        fail("%s references are not stored" % args.workload)
    build()
    data = load_json(REFS_FILE, {})
    table = data.setdefault(args.workload, {})
    for seed in parse_seeds(args.seeds):
        table[str(seed)] = compute_refs(args.workload, seed)
    write_json(REFS_FILE, data)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--refresh-refs", action="store_true")
    p.add_argument("--seeds", default="%d,%d" % (DEFAULT_SEED, HOLDOUT_SEED))
    args = p.parse_args()
    if not 0 <= args.seed < 2**32 or args.seconds < 1:
        fail("--seed must be in [0, 2^32) and --seconds >= 1")
    started = time.time()
    code = refresh_refs(args) if args.refresh_refs else measure(args)
    print("perfbench: done in %.1f s" % (time.time() - started),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
