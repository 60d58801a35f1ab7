#!/usr/bin/env python3
"""Resolve a sigprof.so sample file against the binary it was taken from.

    report.py <binary> <samples> [--under NAME] [--top N] [--alloc]

--under keeps only the samples with a function containing NAME on the
stack (say `Workload>::pass` for the timed region alone); per cents are
then of those.

--alloc keeps only the samples whose innermost frame is in the
allocator or libc (malloc, free, memcpy, Rust's allocation shims and
`RawVec` growth) and charges each to the first two repo frames,
caller <- caller's caller: who allocates and copies, and on whose
behalf. Per cents are of the samples --under kept; the header says
what share of those the allocator and libc took.

--top N prints N rows a table (default 30). Under `--under
'Workload>::pass'` the first 30 inclusive rows are all std::rt,
catch_unwind and harness frames that enclose every sample, so the repo
functions start further down: `--top 80` shows them.

Every distinct address goes through one `addr2line -a -f -i -C` process,
so inlined frames are visible: an address resolves to its innermost
inlined function first, then each function it was inlined into. Return
addresses are looked up one byte back, inside the call instruction.

Without --alloc, three tables, in samples and per cent of all samples:
  - self time by the first repo frame (the innermost frame whose source
    is under crates/ or benchmark/; std, the allocator and libc are
    charged to the repo code that called them),
  - the same by source line,
  - inclusive time by function (each function once per sample).
"""
import collections
import subprocess
import sys


def load(path):
    samples, maps, in_maps = [], [], False
    for line in open(path):
        line = line.rstrip("\n")
        if line == "# maps":
            in_maps = True
        elif in_maps:
            maps.append(line)
        elif line and not line.startswith("#"):
            samples.append([int(a, 16) for a in line.split()])
    return samples, maps


def load_range(maps, binary):
    """Lowest and highest mapped address of the binary. A PIE's first
    segment sits at virtual address 0, so `address - lowest` is the
    address in the file."""
    name = binary.rsplit("/", 1)[-1]
    spans = [
        [int(a, 16) for a in m.split()[0].split("-")]
        for m in maps
        if m.split() and m.split()[-1].rsplit("/", 1)[-1] == name
    ]
    if not spans:
        sys.exit(f"{name} is not in the sample file's maps")
    return min(lo for lo, _ in spans), max(hi for _, hi in spans)


def symbolise(binary, vaddrs):
    """vaddr -> [(function, file:line)], innermost first."""
    feed = "".join(f"{a:#x}\n" for a in vaddrs)
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
        input=feed, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    frames, cur, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            cur = frames.setdefault(int(out[i], 16), [])
            i += 1
        else:
            cur.append((out[i], out[i + 1].split(" (discriminator")[0]))
            i += 2
    return frames


OUTSIDE = ("<outside the binary>", "<outside>")


def in_repo(where):
    """Source under this repo's crates/ or benchmark/ — not the standard
    library's own `library/stdarch/crates/`."""
    return ("/crates/" in where or "/benchmark/" in where) and "/rustc/" not in where


def short(where):
    for mark in ("/crates/", "/benchmark/"):
        if mark in where:
            return mark[1:] + where.split(mark, 1)[1]
    return where


ALLOCATOR = ("__rust_", "__rdl_", "alloc::alloc::", "alloc::raw_vec::", "std::alloc::")


def in_allocator(stack):
    """Whether the sample's innermost frame is libc (outside the binary)
    or one of Rust's allocation layers."""
    fn, where = stack[0] if stack else ("", "")
    return where == OUTSIDE[1] or fn.startswith(ALLOCATOR) or "<alloc::alloc::Global" in fn


def table(title, counts, total, top):
    print(f"\n{title}")
    for key, n in counts.most_common(top):
        print(f"  {n:7d}  {100 * n / total:5.1f} %  {key}")


def main():
    argv, under, top = sys.argv[1:], None, 30
    alloc = "--alloc" in argv
    argv = [a for a in argv if a != "--alloc"]
    try:
        if "--under" in argv:
            i = argv.index("--under")
            under = argv[i + 1]
            del argv[i : i + 2]
        if "--top" in argv:
            i = argv.index("--top")
            top = int(argv[i + 1])
            del argv[i : i + 2]
    except (IndexError, ValueError):
        sys.exit(__doc__)
    if len(argv) != 2 or top < 1:
        sys.exit(__doc__)
    binary, path = argv
    samples, maps = load(path)
    if not samples:
        sys.exit("no samples")
    base, end = load_range(maps, binary)

    def vaddr(addr, leaf):
        return addr - base - (0 if leaf else 1) if base <= addr < end else None

    wanted = {v for s in samples for k, a in enumerate(s) if (v := vaddr(a, k == 0)) is not None}
    frames = symbolise(binary, sorted(wanted))

    self_fn, self_line, incl = collections.Counter(), collections.Counter(), collections.Counter()
    pairs, total, kept_alloc = collections.Counter(), 0, 0
    for s in samples:
        stack = []
        for k, a in enumerate(s):
            v = vaddr(a, k == 0)
            stack.extend(frames.get(v, []) if v is not None else [OUTSIDE])
        if under and not any(under in fn for fn, _ in stack):
            continue
        total += 1
        if alloc:
            if in_allocator(stack):
                kept_alloc += 1
                repo = [fn for fn, w in stack if in_repo(w)][:2] or ["<no repo frame>"]
                pairs[" <- ".join(repo)] += 1
            continue
        first = next(((fn, w) for fn, w in stack if in_repo(w)), None)
        if first is None:
            first = (stack[0][0] if stack else "<no frames>", "??:0")
        self_fn[first[0]] += 1
        self_line[f"{short(first[1])}  {first[0]}"] += 1
        for fn in {fn for fn, w in stack if w != OUTSIDE[1]}:
            incl[fn] += 1

    if not total:
        sys.exit(f"no sample has {under!r} on its stack")
    depth = sum(len(s) for s in samples) / len(samples)
    kept = f", {total} of them under {under!r}" if under else ""
    print(f"{len(samples)} samples{kept}, {depth:.1f} addresses a sample, binary {binary}")
    if alloc:
        if not kept_alloc:
            sys.exit("no sample ends in the allocator or libc")
        print(f"{kept_alloc} of them ({100 * kept_alloc / total:.1f} %) end in the allocator or libc")
        table("allocator and libc time by repo caller <- caller's caller", pairs, kept_alloc, top)
        return
    table("self time by first repo frame", self_fn, total, top)
    table("self time by first repo line", self_line, total, top)
    table("inclusive time by function", incl, total, top)


if __name__ == "__main__":
    main()
