#!/usr/bin/env python3
"""Self-tests of the pcflow benchmark, on the tiny inputs of every workload.

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, ends in a result line that carries
   exactly the end-to-end or per-layer metrics BENCHMARK.json names, each in
   its unit; every workload but socket-loopback passes its checks.
2. Two runs of a simulator workload with the same seed report the same
   sim.rounds, core.deliveries and sim.checkpoint_bytes.
3. A deliberately perturbed answer is reported as a failure on every
   workload.

Exits non-zero on the first failed test. Takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["cold-scale", "churn-recover", "socket-loopback", "threaded-steps"]
# PCF misses its error envelope on the socket runtime today (README), so only
# that workload may fail its checks here.
KNOWN_FAILING = {"socket-loopback"}


def run(workload, seed=7, trace=0, perturb=False):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    if perturb:
        cmd.append("--perturb")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    if done.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd[1:])}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(condition, message):
    if not condition:
        sys.exit(f"FAIL {message}")
    print(f"ok   {message}")


def main():
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace=trace)
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{workload} trace={trace} reports every {group} metric in its unit")
            check(result["attempted"] >= 1, f"{workload} trace={trace} attempted >= 1")
            if workload not in KNOWN_FAILING:
                check(result["correct"] and result["failed"] == 0,
                      f"{workload} trace={trace} passes its checks")

    repeated = {"cold-scale": ("sim.rounds", "core.deliveries"),
                "churn-recover": ("sim.rounds", "core.deliveries", "sim.checkpoint_bytes")}
    for workload, names in repeated.items():
        first, second = (run(workload, seed=5, trace=1)["metrics"] for _ in range(2))
        for name in names:
            check(first[name]["value"] == second[name]["value"],
                  f"{workload}: {name} repeats for one seed ({first[name]['value']})")

    for workload in WORKLOADS:
        result = run(workload, perturb=True)
        check(not result["correct"] and result["failed"] == result["attempted"],
              f"{workload}: a perturbed answer fails every trial")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
