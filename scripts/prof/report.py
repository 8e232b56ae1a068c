#!/usr/bin/env python3
"""Symbolise a samp.c dump: exclusive / inclusive shares per function.

    report.py samp.out [--top N] [--callers SUBSTRING] [--lines SUBSTRING]

Exclusive = the sample's innermost frame; inclusive = anywhere on its
stack, once per sample. Names are addr2line's, so an inlined callee is
named at its call site's address and a frame is the innermost inlined
function there. --lines breaks the exclusive samples of the matching
functions down by source line, following the inlining (`addr2line -i`):
a function's self time is often one line of something inlined into it.
Read shares, not times: the sampler keeps ~200-250 samples per CPU-second.

Samples in the kernel's vDSO (`clock_gettime` and friends) are reported as
`[vdso]`: it is mapped without a file, so there is nothing to symbolise.
Two libc names mislead: addr2line labels an address with the nearest
exported symbol before it, so `__nss_database_lookup` and
`__default_morecore` in a report stand for libc's local memmove and malloc
internals, not for what their names say.
"""
import argparse
import collections
import os
import subprocess
import sys


# The one file-less mapping samples land in: named, never symbolised.
VDSO = "[vdso]"


def load(path):
    """The stacks, the executable mappings (files and the vDSO), and each
    file's load base."""
    stacks, maps, base = [], [], {}
    with open(path) as f:
        lines = iter(f)
        for line in lines:
            if line.startswith("MAPS"):
                break
            stacks.append([int(a, 16) for a in line.split()])
        for line in lines:
            fields = line.split()
            if len(fields) < 6 or not (fields[5].startswith("/") or fields[5] == VDSO):
                continue
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            # An object's load base is where its first mapping starts.
            base.setdefault(fields[5], lo)
            if "x" in fields[1]:
                maps.append((lo, hi, fields[5]))
    return stacks, maps, base


def locate(keys, maps, base):
    """{object path: [(key, offset in the object)]} for the (address, is a
    return address) keys that fall in a mapped object, and the rest."""
    by_object, unmapped = collections.defaultdict(list), []
    for addr, ret in keys:
        hit = next((m for m in maps if m[0] <= addr < m[1]), None)
        if hit:
            # A return address points past its call: step back inside it.
            by_object[hit[2]].append(((addr, ret), addr - base[hit[2]] - ret))
        else:
            unmapped.append((addr, ret))
    return by_object, unmapped


def addr2line(path, offsets, *flags):
    """addr2line's output lines for the offsets in one object."""
    query = "\n".join(hex(rel) for rel in offsets)
    return subprocess.run(
        ["addr2line", "-f", "-C", *flags, "-e", path],
        input=query, capture_output=True, text=True, check=True,
    ).stdout.splitlines()


def symbolise(stacks, maps, base):
    """{(address, is a return address): function name}, one addr2line run
    per mapped object."""
    keys = {(addr, depth > 0) for stack in stacks for depth, addr in enumerate(stack)}
    by_object, unmapped = locate(keys, maps, base)
    names = {key: "[unmapped]" for key in unmapped}
    for key, _ in by_object.pop(VDSO, []):
        names[key] = VDSO
    for path, addrs in by_object.items():
        out = addr2line(path, [rel for _, rel in addrs])
        for (key, _), name in zip(addrs, out[0::2]):
            names[key] = name if name != "??" else f"[{path.rsplit('/', 1)[-1]}]"
    return names


def inline_chains(addrs, maps, base):
    """{address: [(function, file:line), ...]}, the innermost inlined
    function first and the function whose code the address is in last."""
    by_object, _ = locate({(addr, False) for addr in addrs}, maps, base)
    by_object.pop(VDSO, None)
    chains = {}
    for path, located in by_object.items():
        # -a prints each queried address ahead of its (function, location)
        # pairs, one pair per level of inlining.
        out = addr2line(path, [rel for _, rel in located], "-i", "-a")
        at = 0
        for (addr, _), _ in located:
            at += 1
            chain = chains[addr] = []
            while at < len(out) and not out[at].startswith("0x"):
                where = out[at + 1].rsplit("/", 1)[-1].split(" (discriminator")[0]
                chain.append((out[at], where))
                at += 2
    return chains


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dump")
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("--callers", metavar="SUBSTRING",
                    help="also list who calls the functions whose name contains this")
    ap.add_argument("--lines", metavar="SUBSTRING",
                    help="also break the exclusive samples of the functions whose name "
                         "contains this down by inlined source line")
    args = ap.parse_args()

    stacks, maps, base = load(args.dump)
    names = symbolise(stacks, maps, base)
    total = len(stacks)
    excl, incl, callers = (collections.Counter() for _ in range(3))
    for stack in stacks:
        frames = [names[a, depth > 0] for depth, a in enumerate(stack)]
        excl[frames[0]] += 1
        incl.update(set(frames))
        if args.callers:
            inner = next((i for i, f in enumerate(frames) if args.callers in f), None)
            if inner is not None:
                above = [f for f in frames[inner:] if args.callers not in f]
                callers[above[0] if above else "[top of stack]"] += 1

    print(f"{total} samples (~{total / 225:.1f} CPU-seconds)")
    print(f"{'excl %':>7} {'incl %':>7}  function")
    for name, n in excl.most_common(args.top):
        print(f"{100 * n / total:7.2f} {100 * incl[name] / total:7.2f}  {name}")
    if args.callers:
        matched = sum(callers.values())
        print(f"\n'{args.callers}' on the stack in {100 * matched / total:.2f} % of samples; called from:")
        for name, n in callers.most_common(15):
            print(f"{100 * n / total:7.2f}  {name}")
    if args.lines:
        # A sample belongs to every function on its inline chain: the one
        # whose code the address is in, and whatever was inlined there.
        chains = inline_chains({stack[0] for stack in stacks}, maps, base)
        lines = collections.Counter()
        for stack in stacks:
            chain = chains.get(stack[0], [])
            if any(args.lines in fn for fn, _ in chain):
                lines[" < ".join(f"{loc} {fn}" for fn, loc in chain[:3])] += 1
        matched = sum(lines.values())
        print(f"\nexclusive samples in '{args.lines}' or code inlined into it: "
              f"{100 * matched / total:.2f} % of all; by source line "
              f"(innermost three levels of inlining):")
        for where, n in lines.most_common(args.top):
            print(f"{100 * n / total:7.2f}  {where}")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # `report.py ... | head` closed the pipe: nothing left to say. Point
        # stdout somewhere harmless so the interpreter's exit flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
