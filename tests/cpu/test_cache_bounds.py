"""Bounds and eviction of the content-keyed decode LRU.

Campaign workloads rebuild ``Program`` objects constantly, so the
shared decode cache (:mod:`repro.cpu.isa`) is a bounded LRU keyed by
program content.  These tests pin the contract that makes the bound
safe: eviction never changes behaviour (an evicted entry is rebuilt,
not lost) and recency protects the working set.  In-place edits are
covered in ``tests/cpu/test_isa_decode.py``.
"""

import pytest

from repro.cpu import isa
from repro.cpu.isa import AluImm, Halt, MovImm, Program
from repro.cpu.machine import Machine


def make_program(value, name="cache-test"):
    return Program(
        [MovImm("a", value), AluImm("b", "a", 1, "add"), Halt()],
        name=name,
    )


@pytest.fixture
def small_decode_cache():
    previous = isa.set_decode_cache_size(4)
    isa.clear_decode_cache()
    yield
    isa.set_decode_cache_size(previous)
    isa.clear_decode_cache()


class TestDecodeCacheBounds:
    def test_occupancy_never_exceeds_bound(self, small_decode_cache):
        for value in range(10):
            make_program(value).decoded()
        info = isa.decode_cache_info()
        assert info["size"] <= info["max_size"] == 4
        assert info["evictions"] == 6

    def test_fresh_instance_hits_shared_cache(self, small_decode_cache):
        make_program(7).decoded()
        before = isa.decode_cache_info()["hits"]
        # A brand-new Program around the same content must share.
        assert make_program(7).decoded() is make_program(7).decoded()
        assert isa.decode_cache_info()["hits"] > before

    def test_eviction_is_lru_ordered(self, small_decode_cache):
        programs = [make_program(value) for value in range(4)]
        for program in programs:
            program.decoded()
        # Touch the oldest content via a fresh instance, then overflow
        # by one: the evictee must be value=1, not the refreshed value=0.
        make_program(0).decoded()
        make_program(99).decoded()
        hits = isa.decode_cache_info()["hits"]
        make_program(0).decoded()  # still cached
        assert isa.decode_cache_info()["hits"] == hits + 1
        make_program(1).decoded()  # evicted: decodes again
        assert isa.decode_cache_info()["hits"] == hits + 1

    def test_evicted_content_is_rebuilt_identically(self, small_decode_cache):
        program = make_program(5)
        first = program.decoded()
        for value in range(10, 20):  # flush value=5 out of the LRU
            make_program(value).decoded()
        rebuilt = make_program(5).decoded()
        assert rebuilt is not first
        assert rebuilt.ops == first.ops
        assert rebuilt.args == first.args
        assert rebuilt.ivas == first.ivas

    def test_clear_resets_counters_and_entries(self, small_decode_cache):
        make_program(1).decoded()
        isa.clear_decode_cache()
        info = isa.decode_cache_info()
        assert info["size"] == 0
        assert info["hits"] == info["misses"] == info["evictions"] == 0

    def test_shrinking_evicts_down(self, small_decode_cache):
        for value in range(4):
            make_program(value).decoded()
        isa.set_decode_cache_size(2)
        try:
            assert isa.decode_cache_info()["size"] <= 2
        finally:
            isa.set_decode_cache_size(4)

    def test_eviction_does_not_change_results(self, small_decode_cache):
        """End to end: eight programs through a four-entry cache, twice.
        The second round loads fresh copies, so evicted content decodes
        again, and every run must give the same registers."""
        machine = Machine(seed=1)
        process = machine.kernel.create_process("p")

        def run_all():
            return [
                machine.run(
                    process,
                    machine.load_program(
                        process, make_program(value, name=f"p{value}")
                    ),
                ).regs["b"]
                for value in range(8)
            ]

        first = run_all()
        second = run_all()
        assert first == second == [value + 1 for value in range(8)]
        assert isa.decode_cache_info()["evictions"] >= 4
