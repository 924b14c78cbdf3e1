#!/usr/bin/env python3
"""Tests for hostprof_report.py's offset and symbol arithmetic.

A synthetic dump maps a position-independent program and a shared
library whose text segment loads at a different address than its file
offset; symbol tables and program headers are given in place of nm and
the files, so every expected attribution can be worked out by hand.  The
sampler itself is not run here.  Run directly or through ctest
(tools.hostprof_report_test).
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostprof_report as hp  # noqa: E402

DUMP = """hostprof 1
maps
555555554000-555555555000 r--p 00000000 08:01 11 /opt/app/prog
555555555000-555555557000 r-xp 00001000 08:01 11 /opt/app/prog
7f0000000000-7f0000002000 r--p 00000000 08:01 22 /lib/libm.so.6
7f0000002000-7f0000004000 r-xp 00002000 08:01 22 /lib/libm.so.6
7ffff7fc1000-7ffff7fc3000 r-xp 00000000 00:00 0 [vdso]
7ffff7ff0000-7ffff7ff1000 rw-p 00000000 00:00 0
samples 15 2
555555555120 5
555555555180 2
555555556010 3
7f0000002410 1
7f0000003ff0 1
7ffff7fc1100 1
7ffff7ff0008 1
900000000000 1
"""

PROG_SEGMENTS = [hp.Segment(0x0, 0x0, 0x1000),
                 hp.Segment(0x1000, 0x1000, 0x2000)]
# The library's text sits at file offset 0x2000 but links at 0x12000.
LIB_SEGMENTS = [hp.Segment(0x0, 0x0, 0x2000),
                hp.Segment(0x2000, 0x12000, 0x1800)]

NM_PROG = """0000000000001100 T relax
0000000000001160 t relax_row
0000000000002000 T factorize
0000000000004000 D table
                 U sqrt
"""
NM_LIB = """0000000000012400 T sqrt
0000000000012800 W hypot
"""


def symbols_of(path):
    return hp.parse_nm({"/opt/app/prog": NM_PROG,
                        "/lib/libm.so.6": NM_LIB}[path])


def segments_of(path):
    return {"/opt/app/prog": PROG_SEGMENTS, "/lib/libm.so.6": LIB_SEGMENTS}[
        path]


class ParseTest(unittest.TestCase):
    def test_dump(self):
        maps, samples, dropped = hp.parse_dump(DUMP)
        self.assertEqual(len(maps), 6)
        self.assertEqual(maps[1], hp.Mapping(0x555555555000, 0x555555557000,
                                             0x1000, "/opt/app/prog"))
        self.assertEqual(maps[5].path, "")
        self.assertEqual(samples[0], (0x555555555120, 5))
        self.assertEqual(dropped, 2)

    def test_counts_must_add_up(self):
        with self.assertRaises(ValueError):
            hp.parse_dump(DUMP.replace("samples 15 2", "samples 16 2"))
        with self.assertRaises(ValueError):
            hp.parse_dump("perf 1\nmaps\nsamples 0 0\n")

    def test_nm_keeps_text_symbols_sorted(self):
        self.assertEqual(hp.parse_nm(NM_PROG),
                         [(0x1100, "relax"), (0x1160, "relax_row"),
                          (0x2000, "factorize")])


class ArithmeticTest(unittest.TestCase):
    def setUp(self):
        self.maps, _, _ = hp.parse_dump(DUMP)

    def test_find_mapping_is_half_open(self):
        self.assertEqual(hp.find_mapping(self.maps, 0x555555555000).offset,
                         0x1000)
        self.assertEqual(hp.find_mapping(self.maps, 0x555555554fff).offset, 0)
        self.assertIsNone(hp.find_mapping(self.maps, 0x555555557000))
        self.assertIsNone(hp.find_mapping(self.maps, 0x1000))

    def test_link_address_through_the_program_header(self):
        prog = hp.find_mapping(self.maps, 0x555555555120)
        self.assertEqual(hp.link_address(prog, 0x555555555120, PROG_SEGMENTS),
                         0x1120)
        lib = hp.find_mapping(self.maps, 0x7f0000002410)
        # file offset 0x2410 -> 0x2410 - 0x2000 + 0x12000
        self.assertEqual(hp.link_address(lib, 0x7f0000002410, LIB_SEGMENTS),
                         0x12410)
        # Past the segment's file size: no loaded byte, no address.
        self.assertIsNone(hp.link_address(lib, 0x7f0000003ff0, LIB_SEGMENTS))

    def test_nearest_symbol_at_or_below(self):
        symbols = hp.parse_nm(NM_PROG)
        self.assertEqual(hp.nearest_symbol(symbols, 0x1100), "relax")
        self.assertEqual(hp.nearest_symbol(symbols, 0x115f), "relax")
        self.assertEqual(hp.nearest_symbol(symbols, 0x1160), "relax_row")
        self.assertIsNone(hp.nearest_symbol(symbols, 0x10ff))


class AttributeTest(unittest.TestCase):
    def test_flat_table(self):
        maps, samples, _ = hp.parse_dump(DUMP)
        rows = hp.attribute(maps, samples, symbols_of, segments_of)
        self.assertEqual(rows, [
            (5, "relax", "prog"),
            (3, "factorize", "prog"),
            (2, "relax_row", "prog"),
            (1, "[anonymous]", ""),
            (1, "[libm.so.6+0x3ff0]", "libm.so.6"),
            (1, "[unmapped]", ""),
            (1, "[vdso]", ""),
            (1, "sqrt", "libm.so.6"),
        ])


if __name__ == "__main__":
    unittest.main()
