#!/usr/bin/env python3
"""Compare targeted projections against the untargeted baseline on one scheme.

Runs `tarp bench` for ris_rp, ris_pcr and the plain_rp_baseline (no
screening) on the same train/test splits, joins their long-format CSVs into
one (replicate, method, metric, value) file ready for box plots, and prints
median MSPE per method. Each variant's bench outputs are kept next to --out as
<out stem>_<variant>_metrics.csv, _long.csv and _meta.json. With the defaults
this takes a few minutes.

Usage:
    python scripts/targeted_vs_untargeted.py --scheme I --replicates 20 --out compare.csv
"""

import argparse
import statistics
import sys
from pathlib import Path

from tarp.cli import CLI_VARIANTS
from tarp.cli import main as tarp_main
from tarp.simgen import SCHEMES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scheme", default="I", choices=SCHEMES)
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--test-size", type=int, default=100)
    parser.add_argument("--p", type=int, default=2000)
    parser.add_argument("--replicates", type=int, default=20)
    parser.add_argument("--ensemble-size", type=int, default=50)
    parser.add_argument("--seed", type=int, default=6)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--out", default="targeted_vs_untargeted.csv")
    args = parser.parse_args()

    out = Path(args.out)
    lines = ["replicate,method,metric,value"]
    medians = {}
    for variant in CLI_VARIANTS:
        prefix = out.with_name(f"{out.stem}_{variant}")
        code = tarp_main([
            "bench", "--scheme", args.scheme, "--n", str(args.n),
            "--test-size", str(args.test_size), "--p", str(args.p),
            "--replicates", str(args.replicates),
            "--ensemble-size", str(args.ensemble_size), "--variant", variant,
            "--seed", str(args.seed), "--threads", str(args.threads),
            "--out-prefix", str(prefix),
        ])
        if code != 0:
            return code
        body = Path(f"{prefix}_long.csv").read_text(encoding="utf-8").splitlines()[1:]
        lines += body
        rows = [line.split(",") for line in body]
        medians[variant] = statistics.median(
            float(value) for _, _, metric, value in rows if metric == "mspe"
        )
        print(f"{variant}: median mspe {medians[variant]:.3f}")

    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out}")

    baseline = medians["plain_rp_baseline"]
    for variant in ("ris_rp", "ris_pcr"):
        verdict = "beats" if medians[variant] < baseline else "DOES NOT BEAT"
        print(f"{variant} {verdict} the untargeted baseline "
              f"({medians[variant]:.3f} vs {baseline:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
