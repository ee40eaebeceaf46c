"""Seed-determinism check for the benchmark.

Runs every workload twice with one seed and once with a held-out seed,
in both modes, and checks that the metrics which depend on the seed
alone (simulated results, design sizes, per-layer counts) are
bit-identical between the two same-seed runs. Prints both seeds' values
side by side and exits 1 on any difference.

    python3 perfbench/determinism.py

Run it from the repository root.
"""

import json
import subprocess
import sys

WORKLOADS = ["fast-64", "rss-caida", "interp-caida"]
SEED = 1
HELDOUT = 1009
# Seconds per run: the compared metrics do not depend on run length.
SECONDS = 4

# Metrics that must not depend on host speed or run length.
DETERMINISTIC = {
    0: ["sim_mpps", "sim_latency_ns", "sim_latency_max_ns", "sim_delivery_ratio",
        "design_lut_pct", "design_bram_pct"],
    1: ["rss.queue_skew", "rss.merge_conflicts", "rss.fallback_steers",
        "hwsim.flushed_pkt_ratio", "hwsim.flushes_per_kpkt", "hwsim.stall_cycles",
        "nic.cycles_per_pkt", "maps.entries", "hdl.vhdl_kb",
        "core.stages", "core.fused_pairs", "core.removed_insns", "core.elided_checks"],
}


def run(workload, seed, trace):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: correct={res['correct']} failed={res['failed']}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    ok = True
    print(f"{'workload':<13} {'metric':<24} {'seed ' + str(SEED):>16} {'held-out ' + str(HELDOUT):>16}")
    for w in WORKLOADS:
        for trace, names in DETERMINISTIC.items():
            a = run(w, SEED, trace)
            b = run(w, SEED, trace)
            h = run(w, HELDOUT, trace)
            for n in names:
                same = a[n] == b[n]
                ok &= same
                print(f"{w:<13} {n:<24} {a[n]:>16.8g} {h[n]:>16.8g}{'' if same else '  DIFFERS: ' + repr(b[n])}")
    if not ok:
        sys.exit("same-seed runs differ")
    print("same-seed runs identical")


if __name__ == "__main__":
    main()
