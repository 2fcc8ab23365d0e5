"""Tests for the simulated CPU machine (compute kernels + pointer chase)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.activity import fp_instr_key
from repro.hardware import ComputeKernel, CPUConfig, PointerChase, SimulatedCPU
from repro.hardware.branch import BranchSpec
from repro.hardware.cache import CacheConfig, CacheHierarchy


@pytest.fixture(scope="module")
def cpu():
    return SimulatedCPU(CPUConfig())


class TestComputeKernels:
    def test_fp_counts_pass_through(self, cpu):
        k = ComputeKernel(
            "k", fp_ops={fp_instr_key("256", "dp", "fma"): 12.0}
        )
        act = cpu.run_compute(k)
        assert act.get("instr.fp.256.dp.fma") == 12.0
        assert act.get("instr.fp.256.dp.nonfma") == 0.0

    def test_loop_overhead_present(self, cpu):
        act = cpu.run_compute(ComputeKernel("k"))
        assert act.get("instr.int") == 2.0
        assert act.get("branch.cond_retired") == 1.0  # loop back-branch
        assert act.get("cycles.core") > 0

    def test_instr_total_consistency(self, cpu):
        k = ComputeKernel("k", fp_ops={fp_instr_key("scalar", "sp", "nonfma"): 24.0})
        act = cpu.run_compute(k)
        assert act.get("instr.total") == pytest.approx(
            24.0 + act.get("instr.int") + act.get("branch.all_retired")
        )

    def test_mispredicts_add_cycles(self, cpu):
        clean = cpu.run_compute(ComputeKernel("k"))
        noisy = cpu.run_compute(
            ComputeKernel("k", branches=(BranchSpec("taken"), BranchSpec("unpredictable")))
        )
        assert noisy.get("cycles.core") > clean.get("cycles.core")

    def test_compute_kernels_have_no_cache_traffic(self, cpu):
        act = cpu.run_compute(ComputeKernel("k"))
        assert act.get("cache.l1d.demand_hit") == 0.0
        assert act.get("mem.loads_retired") == 0.0

    def test_determinism(self, cpu):
        k = ComputeKernel("k", fp_ops={fp_instr_key("512", "dp", "fma"): 12.0})
        a = cpu.run_compute(k).as_dict()
        b = cpu.run_compute(k).as_dict()
        assert a == b

    def test_512bit_work_is_slower_than_narrow(self, cpu):
        narrow = cpu.run_compute(
            ComputeKernel("n", fp_ops={fp_instr_key("128", "dp", "nonfma"): 96.0})
        )
        wide = cpu.run_compute(
            ComputeKernel("w", fp_ops={fp_instr_key("512", "dp", "nonfma"): 96.0})
        )
        assert wide.get("cycles.core") > narrow.get("cycles.core")


class TestPointerChase:
    def test_l1_resident(self, cpu):
        acts = cpu.run_pointer_chase(PointerChase(n_pointers=256, n_threads=2))
        for act in acts:
            assert act.get("cache.l1d.demand_hit") == 1.0
            assert act.get("cache.l1d.demand_miss") == 0.0

    def test_l2_resident(self, cpu):
        acts = cpu.run_pointer_chase(PointerChase(n_pointers=8192, n_threads=2))
        for act in acts:
            assert act.get("cache.l1d.demand_miss") == 1.0
            assert act.get("cache.l2.demand_rd_hit") == 1.0
            assert act.get("cache.l3.hit") == 0.0

    def test_l3_resident(self, cpu):
        # 2 threads x 4 MiB fits the 32 MiB shared L3.
        acts = cpu.run_pointer_chase(PointerChase(n_pointers=65536, n_threads=2))
        for act in acts:
            assert act.get("cache.l2.demand_rd_miss") == 1.0
            assert act.get("cache.l3.hit") == 1.0
            assert act.get("cache.l3.miss") == 0.0

    def test_memory_resident(self, cpu):
        acts = cpu.run_pointer_chase(PointerChase(n_pointers=2**21, n_threads=2))
        for act in acts:
            assert act.get("cache.l3.miss") == 1.0

    def test_l3_sharing_causes_contention(self, cpu):
        # Per-thread 4 MiB footprint: 2 threads fit the 32 MiB L3, 16 do not.
        few = cpu.run_pointer_chase(PointerChase(n_pointers=65536, n_threads=2))
        many = cpu.run_pointer_chase(PointerChase(n_pointers=65536, n_threads=16))
        assert few[0].get("cache.l3.hit") == 1.0
        assert many[0].get("cache.l3.hit") < 1.0

    def test_stride_controls_footprint(self, cpu):
        # 512 pointers at 128 B stride touch 512 lines over 64 KiB > L1.
        acts = cpu.run_pointer_chase(
            PointerChase(n_pointers=1024, stride_bytes=128, n_threads=1)
        )
        assert acts[0].get("cache.l1d.demand_miss") == 1.0

    def test_hit_plus_miss_is_one_per_access(self, cpu):
        for n in (256, 8192, 65536):
            acts = cpu.run_pointer_chase(PointerChase(n_pointers=n, n_threads=2))
            a = acts[0]
            assert a.get("cache.l1d.demand_hit") + a.get(
                "cache.l1d.demand_miss"
            ) == pytest.approx(1.0)

    def test_l2_accesses_equal_l1_misses(self, cpu):
        acts = cpu.run_pointer_chase(PointerChase(n_pointers=8192, n_threads=1))
        a = acts[0]
        assert a.get("cache.l2.all_demand_rd") == pytest.approx(
            a.get("cache.l1d.demand_miss")
        )

    def test_threads_are_symmetric_on_private_levels(self, cpu):
        acts = cpu.run_pointer_chase(PointerChase(n_pointers=8192, n_threads=4))
        first = acts[0]
        for other in acts[1:]:
            assert other.get("cache.l1d.demand_hit") == first.get("cache.l1d.demand_hit")
            assert other.get("cache.l2.demand_rd_hit") == first.get("cache.l2.demand_rd_hit")

    def test_tlb_walks_for_huge_footprints(self, cpu):
        small = cpu.run_pointer_chase(PointerChase(n_pointers=256, n_threads=1))[0]
        huge = cpu.run_pointer_chase(PointerChase(n_pointers=2**21, n_threads=1))[0]
        assert small.get("tlb.walks") == 0.0
        assert huge.get("tlb.walks") > 0.0

    def test_latency_grows_with_depth(self, cpu):
        l1 = cpu.run_pointer_chase(PointerChase(n_pointers=256, n_threads=1))[0]
        mem = cpu.run_pointer_chase(PointerChase(n_pointers=2**21, n_threads=1))[0]
        assert mem.get("cycles.core") > l1.get("cycles.core")

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 600),
        st.sampled_from([8, 64, 128, 192, 4096]),
        st.integers(1, 6),
    )
    def test_property_threads_match_independent_walks(
        self, n_pointers, stride_bytes, n_threads
    ):
        """Each thread's activity equals its own private walk plus the
        shared-L3 step, though the engine walks the private levels once."""
        # Small enough that every regime shows within 600 pointers,
        # including L3 sets that only the threads together over-fill.
        config = CPUConfig(
            l1d=CacheConfig("L1D", 8 * 64 * 2, 64, 2),
            l2=CacheConfig("L2", 16 * 64 * 4, 64, 4),
            l3=CacheConfig("L3", 64 * 64 * 4, 64, 4),
        )
        cpu = SimulatedCPU(config)
        chase = PointerChase(n_pointers, stride_bytes=stride_bytes, n_threads=n_threads)
        private = CacheHierarchy([config.l1d, config.l2])
        walks = [
            private.cyclic_steady_state(cpu._thread_lines(chase, t))
            for t in range(n_threads)
        ]
        l3 = config.l3
        merged = np.concatenate([walk.survivors for walk in walks])
        overfull = np.bincount(l3.set_index(merged), minlength=l3.n_sets) > l3.ways
        acts = cpu.run_pointer_chase(chase)
        assert len(acts) == n_threads
        for walk, act in zip(walks, acts):
            l1, l2 = walk.level("L1D"), walk.level("L2")
            l3_misses = int(overfull[l3.set_index(walk.survivors)].sum())
            expected = cpu._chase_activity(
                chase,
                l1.hits,
                l1.misses,
                l2.hits,
                l2.misses,
                walk.survivors.size - l3_misses,
                l3_misses,
            )
            assert dict(act) == dict(expected)

    def test_private_sets_must_divide_thread_shift(self):
        # 2**27 sets cannot divide the 2**26-line offset between threads.
        huge_l2 = CacheConfig("L2", 2**27 * 64, 64, 1)
        with pytest.raises(ValueError, match="does not divide"):
            CPUConfig(l2=huge_l2)

    def test_validation(self):
        with pytest.raises(ValueError):
            PointerChase(n_pointers=0)
        with pytest.raises(ValueError):
            PointerChase(n_pointers=10, stride_bytes=4)
        with pytest.raises(ValueError):
            PointerChase(n_pointers=10, n_threads=0)
