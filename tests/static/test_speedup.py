"""The prefilter's economic argument: scanning beats executing by >=10x.

The ``static.scan`` microbenchmark reports the same ratio informally;
this test pins it as a contract on the exact workload the prefilter
replaces — the programs ``fuzz.dual``-style campaigns would otherwise
run through the dynamic two-fill oracle.
"""

import gc
import time

from repro.fuzz.gen import build_program
from repro.fuzz.oracle import leak_check_instructions
from repro.static.gadgets import scan_program

SEEDS = (1001, 1002, 1003, 1004)
BLOCKS = 8


def test_scanner_at_least_10x_faster_than_the_dynamic_oracle():
    programs = [build_program("fuzz-v1", seed, BLOCKS) for seed in SEEDS]

    # Warm both paths once so import/JIT-ish one-time costs don't skew
    # either side of the ratio.
    scan_program(programs[0])
    leak_check_instructions(programs[0], seed=SEEDS[0])

    # Both regions run under the same conditions, timeit's convention:
    # collected first, then with the cyclic GC off.  Otherwise whatever
    # the session left tracked (the hypothesis plugin leaves tens of
    # thousands of objects with the gen-2 counter at its threshold) lands
    # a full collection inside whichever region allocates first.
    gc_was_enabled = gc.isenabled()
    try:
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        for _ in range(3):
            for instructions in programs:
                scan_program(instructions)
        static_elapsed = (time.perf_counter() - start) / 3

        gc.collect()
        start = time.perf_counter()
        for seed, instructions in zip(SEEDS, programs):
            leak_check_instructions(instructions, seed=seed)
        dynamic_elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()

    assert static_elapsed > 0
    ratio = dynamic_elapsed / static_elapsed
    assert ratio >= 10, (
        f"static scan only {ratio:.1f}x faster than dynamic execution "
        f"({static_elapsed * 1e3:.2f}ms vs {dynamic_elapsed * 1e3:.2f}ms "
        f"for {len(programs)} programs)"
    )
