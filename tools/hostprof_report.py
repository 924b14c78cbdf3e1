#!/usr/bin/env python3
"""Flat per-function profile from a hostprof dump.

    python3 tools/hostprof_report.py hostprof.<pid>.txt [--top N]

The dump (tools/hostprof.cpp) holds the process's /proc/self/maps and
each sampled program counter with its count.  A PC maps to a file offset
through the mapping that holds it (pc - start + offset), and the offset
to a link-time address through the ELF program header that loads it
(offset - p_offset + p_vaddr).  The function is the nearest text symbol
at or below that address: from `nm -C -S` of the file, or `nm -C -S -D`
when the file has no symbol table (a stripped shared library).  A PC
past the end of that symbol, as nm's size gives it, lies in code no
symbol names (a stripped library's private functions), and is reported
as "[NAME+0xOFF, past its 0xSIZE bytes]" rather than charged to NAME; a
symbol with no recorded size takes every PC up to the next symbol.
PCs outside every file mapping are charged to the mapping's name
([vdso], [heap], ...) or to [unmapped].
"""

from __future__ import annotations

import argparse
import bisect
import collections
import struct
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

TEXT_TYPES = set("TtWwi")


@dataclass(frozen=True)
class Mapping:
    start: int
    end: int
    offset: int
    path: str  # "" for an anonymous mapping


@dataclass(frozen=True)
class Segment:
    offset: int  # p_offset
    vaddr: int   # p_vaddr
    size: int    # p_filesz


def parse_maps_line(line: str) -> Mapping:
    """One /proc/<pid>/maps line: range, perms, offset, dev, inode, path."""
    fields = line.split(maxsplit=5)
    start, end = (int(v, 16) for v in fields[0].split("-"))
    path = fields[5].strip() if len(fields) > 5 else ""
    return Mapping(start, end, int(fields[2], 16), path)


def parse_dump(text: str) -> tuple[list[Mapping], list[tuple[int, int]], int]:
    """(mappings, [(pc, count)], dropped samples) from a dump's text."""
    lines = text.splitlines()
    if not lines or lines[0] != "hostprof 1" or lines[1:2] != ["maps"]:
        raise ValueError("not a hostprof dump")
    maps: list[Mapping] = []
    i = 2
    while i < len(lines) and not lines[i].startswith("samples "):
        maps.append(parse_maps_line(lines[i]))
        i += 1
    if i == len(lines):
        raise ValueError("hostprof dump has no samples line")
    _, kept, dropped = lines[i].split()
    samples = []
    for line in lines[i + 1:]:
        pc, count = line.split()
        samples.append((int(pc, 16), int(count)))
    if sum(c for _, c in samples) != int(kept):
        raise ValueError("hostprof dump sample counts do not add up")
    return sorted(maps, key=lambda m: m.start), samples, int(dropped)


def find_mapping(maps: list[Mapping], pc: int) -> Mapping | None:
    """The mapping whose [start, end) holds pc; maps sorted by start."""
    i = bisect.bisect_right([m.start for m in maps], pc) - 1
    if i >= 0 and pc < maps[i].end:
        return maps[i]
    return None


def link_address(mapping: Mapping, pc: int,
                 segments: list[Segment]) -> int | None:
    """The ELF address of pc, or None if no loaded segment holds it."""
    offset = pc - mapping.start + mapping.offset
    for seg in segments:
        if seg.offset <= offset < seg.offset + seg.size:
            return offset - seg.offset + seg.vaddr
    return None


def parse_nm(text: str) -> list[tuple[int, str, int]]:
    """Sorted (address, name, size) of the text symbols in `nm -C -S`
    output; size is 0 where nm gives none."""
    symbols = []
    for line in text.splitlines():
        parts = line.split(maxsplit=2)
        if len(parts) == 3 and len(parts[1]) > 1:  # "address size type name"
            parts = line.split(maxsplit=3)
            if len(parts) == 4 and parts[2] in TEXT_TYPES:
                symbols.append((int(parts[0], 16), parts[3],
                                int(parts[1], 16)))
        elif len(parts) == 3 and parts[1] in TEXT_TYPES:
            symbols.append((int(parts[0], 16), parts[2], 0))
    return sorted(symbols)


def nearest_symbol(symbols: list[tuple[int, str, int]],
                   address: int) -> str | None:
    """The function at address: the last symbol at or below it, or, past
    that symbol's recorded size, a label for the code after it."""
    i = bisect.bisect_right(symbols, (address, chr(0x10FFFF))) - 1
    if i < 0:
        return None
    start, name, size = symbols[i]
    if size and address >= start + size:
        return f"[{name}+{address - start:#x}, past its {size:#x} bytes]"
    return name


def elf_segments(path: str) -> list[Segment]:
    """PT_LOAD program headers of a 64-bit little-endian ELF file."""
    with open(path, "rb") as f:
        header = f.read(64)
        if header[:4] != b"\x7fELF" or header[4] != 2 or header[5] != 1:
            return []
        phoff, = struct.unpack_from("<Q", header, 0x20)
        phentsize, phnum = struct.unpack_from("<HH", header, 0x36)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segments = []
    for k in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, k * phentsize)
        if p_type == 1:  # PT_LOAD
            segments.append(Segment(p_offset, p_vaddr, p_filesz))
    return segments


def nm_symbols(path: str) -> list[tuple[int, str, int]]:
    """Text symbols of a file: its symbol table, else its dynamic one."""
    for flags in (["-C", "-S"], ["-C", "-S", "-D"]):
        proc = subprocess.run(["nm", *flags, "--defined-only", path],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              check=False)
        symbols = parse_nm(proc.stdout)
        if symbols:
            return symbols
    return []


def attribute(maps: list[Mapping], samples: list[tuple[int, int]],
              symbols_of: Callable[[str], list[tuple[int, str, int]]],
              segments_of: Callable[[str], list[Segment]]
              ) -> list[tuple[int, str, str]]:
    """[(samples, function, object)], most samples first."""
    counts: collections.Counter = collections.Counter()
    symbols: dict[str, list[tuple[int, str, int]]] = {}
    segments: dict[str, list[Segment]] = {}
    for pc, count in samples:
        mapping = find_mapping(maps, pc)
        if mapping is None:
            counts[("[unmapped]", "")] += count
            continue
        if not mapping.path.startswith("/"):
            counts[(mapping.path or "[anonymous]", "")] += count
            continue
        path = mapping.path
        if path not in symbols:
            segments[path] = segments_of(path)
            symbols[path] = symbols_of(path)
        address = link_address(mapping, pc, segments[path])
        name = None if address is None else nearest_symbol(symbols[path],
                                                           address)
        obj = path.rsplit("/", 1)[-1]
        offset = pc - mapping.start + mapping.offset
        counts[(name or f"[{obj}+{offset:#x}]", obj)] += count
    return sorted(((n, f, o) for (f, o), n in counts.items()),
                  key=lambda row: (-row[0], row[1]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dump")
    parser.add_argument("--top", type=int, default=30,
                        help="rows to print (default 30, 0 = all)")
    args = parser.parse_args()
    with open(args.dump, encoding="utf-8") as f:
        maps, samples, dropped = parse_dump(f.read())
    rows = attribute(maps, samples, nm_symbols, elf_segments)
    total = sum(n for n, _, _ in rows)
    print(f"{total} samples ({dropped} dropped)")
    print(f"{'samples':>8} {'share':>6}  function  [object]")
    for n, function, obj in rows[:args.top or None]:
        share = 100.0 * n / total if total else 0.0
        print(f"{n:>8} {share:>5.1f}%  {function[:120]}  [{obj}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
