#!/usr/bin/env python3
"""Dark-box comparison of coincidence and singles counting.

With the jamming laser off, counts are taken with the target in and out
across a brightness grid. Coincidences with the target out stay near zero
(only detector noise accidentals), while singles with the target out sit
on the dark-count floor, which is what limits the classical protocol even
in a quiet environment.

Writes isolated_comparison.csv with in/out tallies per brightness.
"""

import argparse
import csv
import dataclasses
import os

from qisim.channel import simulate_counts
from qisim.model import paper_default
from qisim.rng import ISOLATED_SPACE, substream


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--dwell-s", type=float, default=10.0)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    cfg = paper_default(seed=args.seed)
    dwell = cfg.pulses_for_seconds(args.dwell_s)
    mu_grid = [1e-3, 2.5e-3, 5e-3, 7.5e-3, 1e-2, 1.5e-2, 2e-2, 2.5e-2]

    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "isolated_comparison.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mu", "coinc_in", "coinc_out", "singles_in", "singles_out"])
        for i, mu in enumerate(mu_grid):
            run = dataclasses.replace(cfg, source=dataclasses.replace(cfg.source, mu=mu))
            key = (args.seed, ISOLATED_SPACE, i)
            counts_in = simulate_counts(run, True, dwell, substream(*key, 0))
            counts_out = simulate_counts(run, False, dwell, substream(*key, 1))
            writer.writerow(
                [
                    mu,
                    counts_in.n_coincidences,
                    counts_out.n_coincidences,
                    counts_in.n_signal_clicks,
                    counts_out.n_signal_clicks,
                ]
            )
            print(
                f"mu={mu:g}: coinc {counts_in.n_coincidences}/{counts_out.n_coincidences}, "
                f"singles {counts_in.n_signal_clicks}/{counts_out.n_signal_clicks} (in/out)"
            )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
