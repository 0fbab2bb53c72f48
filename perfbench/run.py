#!/usr/bin/env python3
"""Build the pcflow benchmark and run one workload; the last line of stdout
is the result as one JSON object.

    python3 perfbench/run.py --workload cold-scale --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that holds src/ next to perfbench/. The
first run configures and builds perfbench/CMakeLists.txt (Release) into
.bench_build/ at the checkout root; later runs rebuild only what changed.

Without --trace the result carries the end-to-end metrics BENCHMARK.json
lists; with --trace 1 it carries the per-layer ones, measured by the traced
trials of the run. Both print every metric the run measured, with its unit,
before the result line, together with provenance and machine context: git
sha when there is one, a digest of the sources, compiler, build type and
flags, CPU count, load average at start and end, and a memory-bandwidth
probe. Full reports (and, traced, the spans) go to .bench_build/reports/.

--tiny runs the same code on small inputs (self-tests); --perturb corrupts
every answer before it is checked, so every trial must fail.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_TIMEOUT_S = 850
# Keeps the compiler's temporaries, and git's search for a repository,
# inside the checkout.
ENV = {**os.environ, "TMPDIR": str(BUILD / "tmp"),
       "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
RUN_TIMEOUT_S = 160  # a run must end within 180 s, the probe included


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then brings the binary up to date."""
    if not (ROOT / "src" / "sim" / "engine_sync.hpp").is_file():
        die(f"pcflow sources not found under {ROOT / 'src'}")
    build_dir = BUILD / "perfbench"
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "pcfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout belongs to the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=ENV,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            die(f"build step failed: {' '.join(cmd)}")
    return build_dir / "pcfbench"


def source_digest():
    """sha256 over the files the binary is built from (path and content)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=ENV,
                              capture_output=True, text=True, timeout=30, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_group(cmd, timeout):
    """Runs cmd in its own process group; on timeout kills the whole group
    (the socket workload forks shard processes) and waits for it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=ENV, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"pcfbench did not finish within {timeout} s")
    return proc.returncode, stdout, stderr


def triad(binary):
    returncode, stdout, stderr = run_group([str(binary), "--triad"], 15)
    if returncode != 0:
        die(f"triad probe failed: {stderr.strip()}")
    return json.loads(stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    load_start = os.getloadavg()
    reports = BUILD / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    report_path = reports / f"{stem}.json"
    scratch = BUILD / "run" / f"{stem}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--report", str(report_path), "--spans", str(reports / f"{stem}-spans.json"),
           "--scratch", str(scratch)]
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb:
        cmd.append("--perturb")
    report_path.unlink(missing_ok=True)
    try:
        returncode, stdout, stderr = run_group(cmd, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(stdout)
    sys.stderr.write(stderr)
    if returncode != 0 or not report_path.is_file():
        die(f"pcfbench exited with {returncode}")
    report = json.loads(report_path.read_text())

    probe = triad(binary)
    load_end = os.getloadavg()
    report["provenance"] = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "compiler": report["build"]["compiler"],
        "build_type": report["build"]["type"],
        "flags": report["build"]["flags"],
        "nproc": os.cpu_count(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(load_end),
    }
    report["machine"] = {
        "machine.triad_gbps": {"value": probe["triad_gbps"], "unit": "GB/s",
                               "note": "context only, never gated"},
        "llc_bytes": probe["llc_bytes"],
        "triad_array_bytes": probe["array_bytes"],
    }
    report_path.write_text(json.dumps(report, indent=2) + "\n")

    prov = report["provenance"]
    print(f"provenance: git {prov['git_sha'] or 'none (not a git checkout)'}, "
          f"sources sha256 {prov['source_sha256'][:16]}, {prov['compiler']}, "
          f"{prov['build_type']} '{prov['flags'].strip()}', nproc {prov['nproc']}, "
          f"loadavg {load_start[0]:.2f} -> {load_end[0]:.2f}")
    kernel = report["per_layer"].get("core.kernel_deliveries_per_s")
    print(f"machine.triad_gbps {probe['triad_gbps']:.3f} GB/s (context only; 3 arrays of "
          f"{probe['array_bytes'] / 2**20:.0f} MiB, last-level cache "
          f"{probe['llc_bytes'] / 2**20:.0f} MiB)"
          + (f", next to core.kernel_deliveries_per_s {kernel['value']:.4g} 1/s"
             if kernel else ""))
    print(f"report: {report_path.relative_to(ROOT)}")

    measured = {**report["end_to_end"], **report["per_layer"], **report["machine"]}
    metrics = {}
    for entry in wanted:
        got = measured.get(entry["name"])
        if got is None:
            die(f"metric {entry['name']} was not measured", code=3)
        if got["unit"] != entry["unit"]:
            die(f"metric {entry['name']} measured in {got['unit']}, "
                f"BENCHMARK.json says {entry['unit']}", code=3)
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
