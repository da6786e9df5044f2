#!/usr/bin/env python3
"""Full-scale rank-3 benchmark (p=5000, 100 train/test replicates).

Paper-scale reproduction (98 s wall time with --threads 2 on a 2-core VM);
the desk-scale equivalent lives in the acceptance suite. Reference values for
the 50% interval with ris_rp: mean ECP 0.494 and mean width 1.351.

Usage:
    python scripts/full_scale_rank3.py --threads 4 --out-prefix full_rank3
"""

import argparse
import sys

from tarp.cli import main as tarp_main

REFERENCE = {"ecp": (0.494, 0.06), "width": (1.351, 0.20)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--variant", default="ris_rp",
                        choices=["ris_rp", "ris_pcr"])
    parser.add_argument("--replicates", type=int, default=100)
    parser.add_argument("--ensemble-size", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--out-prefix", default="full_rank3")
    args = parser.parse_args()

    code = tarp_main([
        "bench", "--scheme", "III", "--n", "200", "--test-size", "100",
        "--p", "5000", "--replicates", str(args.replicates),
        "--ensemble-size", str(args.ensemble_size), "--variant", args.variant,
        "--seed", str(args.seed), "--threads", str(args.threads),
        "--out-prefix", args.out_prefix,
    ])
    if code != 0:
        return code

    with open(f"{args.out_prefix}_metrics.csv", encoding="utf-8") as fh:
        rows = {line.split(",")[0]: line.split(",")[1:] for line in fh.read().splitlines()[1:]}
    _, ecp, width = (float(v) for v in rows["mean"])
    print("\nreference comparison (ris_rp targets):")
    for name, value in (("ecp", ecp), ("width", width)):
        target, tol = REFERENCE[name]
        status = "within" if abs(value - target) <= tol else "OUTSIDE"
        print(f"  {name}: {value:.3f} vs {target:.3f} +- {tol:.2f} -> {status}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
