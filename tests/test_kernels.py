"""Bitmask kernels: the closure lookup and transform against the
per-subset scan."""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

import oracles
from hullflow import kernels, setsys


def random_families(seed, count):
    rnd = random.Random(seed)
    for _ in range(count):
        n = rnd.randint(1, 6)
        yield n, [m for m in range(1 << n) if rnd.random() < rnd.random()]


class TestPureKernels:
    def test_closure_table_small(self):
        # sources {1}=0b01 and 0b11 over two points
        table = kernels.closure_table(2, [0b01, 0b11])
        assert list(table) == [0b01, 0b01, 0b11, 0b11]

    def test_closure_table_empty_family(self):
        assert list(kernels.closure_table(1, [])) == [0, 0]

    def test_hull_value_union_vs_intersection(self):
        sources = [0b011, 0b101]
        assert kernels.hull_value(sources, 0b001, 1, 1) == 0b001
        assert kernels.hull_value(sources, 0b001, 0, 1) == 0b111
        assert kernels.hull_value(sources, 0b111, 1, 0) == 0b001
        assert kernels.hull_value(sources, 0b111, 0, 0) == 0b111
        assert kernels.hull_value(sources, 0b110, 1, 1) == 0

    def test_perm_table_matches_pointwise(self):
        for perm in oracles.self_maps():
            table = kernels.perm_table(perm)
            assert table == [oracles.image(perm, mask) for mask in range(1 << len(perm))]

    def test_orbit_blocks(self):
        assert kernels.orbit_blocks(3, [[1, 0, 2]]) == [0b011, 0b100]
        assert kernels.orbit_blocks(3, [[1, 2, 0]]) == [0b111]


class TestUpClosure:
    def test_matches_superset_scan(self):
        # every family up to n=3, seeded ones up to n=8: the up-closure
        # holds a subset exactly when some member lies inside it
        cases = [(n, family) for n in (1, 2, 3) for family in range(1 << (1 << n))]
        rnd = random.Random(17)
        cases += [
            (n, rnd.getrandbits(1 << n) & rnd.getrandbits(1 << n) & rnd.getrandbits(1 << n))
            for n in range(4, 9)
            for _ in range(40)
        ]
        for n, family in cases:
            members = [m for m in range(1 << n) if family >> m & 1]
            expected = sum(
                1 << z for z in range(1 << n) if any(m & ~z == 0 for m in members)
            )
            assert kernels.up_closure(n, family) == expected, (n, family)


class TestHullTable:
    def test_matches_per_subset_scan(self):
        # the 16-cell block passes (the pairs inside the table below 4
        # points) and the slice-wise passes over the higher bits
        families = list(random_families(3, 300))
        rnd = random.Random(5)
        for n in range(1, 10):
            families += [(n, []), (n, list(range(1 << n)))]
            families += [
                (n, [m for m in range(1 << n) if rnd.random() < p]) for p in (0.05, 0.5)
            ]
        for n, sources in families:
            expected = [kernels.hull_value(sources, z, 1, 1) for z in range(1 << n)]
            assert list(kernels.closure_table(n, sources)) == expected, (n, sources)

    def test_lookup_matches_per_subset_scan(self):
        # the transform on up to 4 points: every family up to n=3, at n=4
        # every family with a zero byte and random ones
        families = [
            (n, family) for n in range(1, 4) for family in range(1 << (1 << n))
        ]
        families += [(4, b) for b in range(256)] + [(4, b << 8) for b in range(1, 256)]
        rnd = random.Random(11)
        families += [(4, rnd.getrandbits(16)) for _ in range(2000)]
        for n, family in families:
            sources = [m for m in range(1 << n) if family >> m & 1]
            expected = [kernels.hull_value(sources, z, 1, 1) for z in range(1 << n)]
            assert list(kernels.closure_table(n, sources)) == expected, (n, sources)

    def test_lookup_rejects_a_source_outside_the_ground(self):
        with pytest.raises(IndexError):
            kernels.closure_table(2, [0b100])

    def test_import_builds_no_lookup_table(self):
        # the closure byte tables of each n and the passes of up_closure
        # are built on first use, so importing the CLI (the benchmark's
        # setup) pays nothing for them
        code = (
            "import hullflow.cli, hullflow.kernels as k, hullflow.setsys as s;"
            "print(s._family_tables.cache_info().currsize + k._up_passes.cache_info().currsize)"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True, timeout=60,
        ).stdout
        assert out.strip() == "0"

    def test_memory_stays_within_twice_the_table(self):
        n = 14
        sources = [m for m in range(1 << n) if m % 7 == 3]
        tracemalloc.start()
        try:
            table = kernels.closure_table(n, sources)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the list and one int object per cell
        own = sys.getsizeof(table) + sum(map(sys.getsizeof, table))
        assert peak <= 2 * own, (own, peak)

    def test_commutation_by_translation_matches_the_cell_loop(self):
        # byte tables are composed by two translations, lists cell by cell:
        # every closure table up to n=3 (every family, both conventions)
        # with every self-map, and seeded tables and maps at n=4
        cases = []
        for n in (1, 2, 3):
            tables = {
                setsys.closure_map_of(n, family, conv)
                for family in range(1 << (1 << n))
                for conv in setsys.ClosureConvention
            }
            maps = [
                bytes(kernels.perm_table(image))
                for image in itertools.product(range(n), repeat=n)
            ]
            cases += [(table, cl) for cl in sorted(tables) for table in maps]
        rnd = random.Random(41)
        for _ in range(2000):
            family = rnd.getrandbits(16)
            cl = setsys.closure_map_of(4, family, rnd.choice(list(setsys.ClosureConvention)))
            cases.append((bytes(kernels.perm_table([rnd.randrange(4) for _ in range(4)])), cl))
        outcomes = []
        for table, cl in cases:
            assert isinstance(table, bytes) and isinstance(cl, bytes)
            expected = kernels.commutes_with_closure(list(table), list(cl))
            assert kernels.commutes_with_closure(table, cl) == expected, (list(table), list(cl))
            outcomes.append(expected)
        assert 0 < outcomes.count(True) < len(outcomes)

    def test_commutes_with_closure_takes_the_point_map(self):
        for n, sources in random_families(4, 100):
            cl = kernels.closure_table(n, sources)
            for perm in itertools.islice(itertools.permutations(range(n)), 6):
                expected = all(
                    oracles.image(perm, cl[z]) == cl[oracles.image(perm, z)]
                    for z in range(1 << n)
                )
                assert kernels.commutes_with_closure(kernels.perm_table(perm), cl) == expected
