"""Bitmask kernels: the hull transform against the per-subset scan."""

import itertools
import random
import sys
import tracemalloc

from hullflow import kernels


def random_families(seed, count):
    rnd = random.Random(seed)
    for _ in range(count):
        n = rnd.randint(1, 6)
        yield n, [m for m in range(1 << n) if rnd.random() < rnd.random()]


class TestPureKernels:
    def test_closure_table_small(self):
        # sources {1}=0b01 and 0b11 over two points
        table = kernels.hull_table(2, [0b01, 0b11], 1, 1)
        assert table == [0b01, 0b01, 0b11, 0b11]

    def test_closure_table_empty_family(self):
        assert kernels.hull_table(1, [], 1, 1) == [0, 0]

    def test_hull_value_union_vs_intersection(self):
        sources = [0b011, 0b101]
        assert kernels.hull_value(sources, 0b001, 1, 1) == 0b001
        assert kernels.hull_value(sources, 0b001, 0, 1) == 0b111
        assert kernels.hull_value(sources, 0b111, 1, 0) == 0b001
        assert kernels.hull_value(sources, 0b111, 0, 0) == 0b111
        assert kernels.hull_value(sources, 0b110, 1, 1) == 0

    def test_perm_table_matches_pointwise(self):
        for perm in itertools.permutations(range(3)):
            table = kernels.perm_table(list(perm))
            for mask in range(8):
                assert table[mask] == kernels.image(list(perm), mask)

    def test_orbit_blocks(self):
        assert kernels.orbit_blocks(3, [[1, 0, 2]]) == [0b011, 0b100]
        assert kernels.orbit_blocks(3, [[1, 2, 0]]) == [0b111]


class TestHullTable:
    def test_matches_per_subset_scan(self):
        # n <= 4 runs only the 16-cell block passes, n > 4 adds the
        # slice-wise passes over the higher bits
        families = list(random_families(3, 300))
        rnd = random.Random(5)
        for n in range(1, 10):
            families += [(n, []), (n, list(range(1 << n)))]
            families += [
                (n, [m for m in range(1 << n) if rnd.random() < p]) for p in (0.05, 0.5)
            ]
        for n, sources in families:
            for j, k in itertools.product((0, 1), repeat=2):
                expected = [kernels.hull_value(sources, z, j, k) for z in range(1 << n)]
                assert kernels.hull_table(n, sources, j, k) == expected, (n, sources, j, k)

    def test_memory_stays_within_twice_the_table(self):
        n = 14
        sources = [m for m in range(1 << n) if m % 7 == 3]
        for j, k in itertools.product((0, 1), repeat=2):
            tracemalloc.start()
            try:
                table = kernels.hull_table(n, sources, j, k)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # the list and one int object per cell
            own = sys.getsizeof(table) + sum(map(sys.getsizeof, table))
            assert peak <= 2 * own, (j, k, own, peak)

    def test_commutes_with_closure_takes_the_point_map(self):
        for n, sources in random_families(4, 100):
            cl = kernels.hull_table(n, sources, 1, 1)
            for perm in itertools.islice(itertools.permutations(range(n)), 6):
                expected = all(
                    kernels.image(perm, cl[z]) == cl[kernels.image(perm, z)]
                    for z in range(1 << n)
                )
                assert kernels.commutes_with_closure(perm, cl) == expected
