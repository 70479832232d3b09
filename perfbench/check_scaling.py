"""Measure how far the speed reference of worker.py follows the heap.

    python3 perfbench/check_scaling.py

worker.Sampler scales each time by REF_S over the mean cost of a small
kernel sampled while the time was taken.  As far as the kernel's cost
also follows what the measured code holds or walks, a change that grows
or shrinks the library's heap moves the reference too, and part of its
effect is hidden in scaled times.  This script measures that part; see
README.md for the figures.

1. Cache pollution.  Without the sampler, PAIRS times over, the script
   reads 10,000 random bytes of a 96 MB buffer (far) or of a 64 kB one
   (near), then times the kernel: once as worker.time_reference does
   it, cold, and once warm, right after an untimed run.  It prints the
   far cost over the near cost of each: a harsher case than the
   library calls of part 2.
2. The library's own heap.  Under the sampler, CYCLES times over, it
   runs Fibonacci complexity_profile(300) 8 times (small: a heap under
   1 MB), complexity_profile(3000) (large: the LCP loop walks about
   10 MB) and the large one twice in a row (twice).  It prints the mean
   kernel cost sampled during large and twice over that during small,
   and twice over large in raw and in scaled time, where the true ratio
   is 2.

Each ratio is the geometric mean of per-pair or per-cycle ratios, with
its relative standard error and the ratios' quartile spread.
"""

import math
import random
import statistics
import sys
import time

import worker

BUFFER_BYTES = 96 << 20
NEAR_BYTES = 64 << 10
READS = 10_000
PAIRS = 4000
CYCLES = 120


def report(label, ratios):
    logs = [math.log(r) for r in ratios]
    q = statistics.quantiles(ratios, n=4)
    print("  %-20s %.4f +- %.4f   spread %.3f" % (
        label, math.exp(statistics.fmean(logs)),
        statistics.stdev(logs) / len(logs) ** 0.5, (q[2] - q[0]) / q[1]))


def warm_reference():
    worker.reference_kernel()
    return worker.time_reference()


def cache_pollution(pairs):
    rng = random.Random(0)
    far = bytearray(b"\1" * BUFFER_BYTES)  # written, so resident
    near = bytearray(b"\1" * NEAR_BYTES)
    spots = {"far": (far, [rng.randrange(BUFFER_BYTES) for _ in range(READS)]),
             "near": (near, [rng.randrange(NEAR_BYTES) for _ in range(READS)])}
    print("reference cost after reading far over after reading near, "
          "%d pairs:" % pairs)
    for label, timer in (("time_reference", worker.time_reference),
                         ("warm", warm_reference)):
        cost = {"far": [], "near": []}
        for _ in range(pairs):
            for where, (buffer, places) in spots.items():
                acc = 0
                for i in places:
                    acc += buffer[i]
                cost[where].append(timer()[1])
        report(label, [f / n for f, n in zip(cost["far"], cost["near"])])


def library_heap(cycles):
    lib = worker.load_substoe()

    def profile(n):
        lib.subst.Substitution({"a": "ab", "b": "a"}).complexity_profile(n)

    ops = {
        "small": lambda: [profile(300) for _ in range(8)],
        "large": lambda: profile(3000),
        "twice": lambda: (profile(3000), profile(3000)),
    }
    kernel = {name: [] for name in ops}
    raw = {name: [] for name in ops}
    scaled = {name: [] for name in ops}
    sampler = worker.Sampler()
    sampler.start()
    try:
        for _ in range(cycles):
            sampler.count = 0  # the arrays hold SAMPLED_S, not a whole run
            for name, op in ops.items():
                spent = sampler.spent
                start = time.perf_counter()
                op()
                end = time.perf_counter()
                elapsed = end - start - (sampler.spent - spent)
                raw[name].append(elapsed)
                scaled[name].append(sampler.scale(elapsed, start, end))
                # every op is long enough that this mean is of its own samples
                kernel[name].append(worker.REF_S / sampler.scale(1.0, start, end))
    finally:
        sampler.stop()
    print("kernel cost sampled during each over that during small, "
          "%d cycles:" % cycles)
    for name in ("large", "twice"):
        report(name, [k / s for k, s in zip(kernel[name], kernel["small"])])
    print("twice over large, true ratio 2:")
    for label, times in (("raw", raw), ("scaled", scaled)):
        report(label, [t / o for t, o in zip(times["twice"], times["large"])])


def main():
    cache_pollution(PAIRS)
    library_heap(CYCLES)
    return 0


if __name__ == "__main__":
    sys.exit(main())
