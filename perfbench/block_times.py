"""Time each step of one full-decoder block at the excess_large_m size.

    python3 perfbench/block_times.py [--rows 14886] [--cols 64] [--reps 20]

Steps, as in ``vlf.stop_feedback_transmit``: keyed hashing
(``keyed_uniforms_2d``), codebook symbols (``LazyCodebook.block``, hashing
included), channel outputs, density gather, cumsum and threshold scan.
Prints the median milliseconds of each step over --reps repetitions.
"""

import argparse
import statistics
import sys
import time

from run import import_package


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--rows", type=int, default=14886)
    p.add_argument("--cols", type=int, default=64)
    p.add_argument("--reps", type=int, default=20)
    args = p.parse_args(argv)
    import_package()
    import numpy as np

    from jsccsim import channels, rng, vlf

    dmc = channels.bsc(0.11)
    stream = rng.seed_stream(1, 0)
    codebook = vlf.LazyCodebook(stream.derive(1).key, dmc.caid_cum)
    noise = stream.derive(2)
    rows = np.arange(args.rows)
    thresholds = np.full(args.rows, 30.0)
    X = codebook.block(rows, 0, args.cols)
    y = channels.dmc_steps(dmc, X[0], noise.uniforms_at(0, args.cols))
    D = dmc.log_density[X, y[None, :]]
    S = np.cumsum(D, axis=1)
    steps = {
        "keyed_uniforms_2d": lambda: rng.keyed_uniforms_2d(codebook.key, rows, 0, args.cols),
        "LazyCodebook.block": lambda: codebook.block(rows, 0, args.cols),
        "channel outputs": lambda: channels.dmc_steps(dmc, X[0], noise.uniforms_at(0, args.cols)),
        "density gather": lambda: dmc.log_density[X, y[None, :]],
        "cumsum": lambda: np.cumsum(D, axis=1),
        "threshold scan": lambda: (S >= thresholds[:, None]).any(axis=1),
    }
    print(f"one {args.rows}x{args.cols} block, median of {args.reps}:")
    for name, fn in steps.items():
        times = []
        for _ in range(args.reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        print(f"  {name:>18}: {1e3 * statistics.median(times):7.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
