#!/usr/bin/env python3
"""Symbolise a samp.c dump: exclusive / inclusive shares per function.

    report.py samp.out [--top N] [--callers SUBSTRING]

Exclusive = the sample's innermost frame; inclusive = anywhere on its
stack, once per sample. Names are addr2line's, so an inlined callee is
named at its call site's address and a frame is the innermost inlined
function there. Read shares, not times: the sampler keeps ~200-250 samples
per CPU-second.
"""
import argparse
import collections
import subprocess


def load(path):
    """The stacks, the executable file mappings, and each file's load base."""
    stacks, maps, base = [], [], {}
    with open(path) as f:
        lines = iter(f)
        for line in lines:
            if line.startswith("MAPS"):
                break
            stacks.append([int(a, 16) for a in line.split()])
        for line in lines:
            fields = line.split()
            if len(fields) < 6 or not fields[5].startswith("/"):
                continue
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            # An object's load base is where its first mapping starts.
            base.setdefault(fields[5], lo)
            if "x" in fields[1]:
                maps.append((lo, hi, fields[5]))
    return stacks, maps, base


def symbolise(stacks, maps, base):
    """{(address, is a return address): function name}, one addr2line run
    per mapped object."""
    where = {}
    for stack in stacks:
        for depth, addr in enumerate(stack):
            key = (addr, depth > 0)
            if key not in where:
                hit = next((m for m in maps if m[0] <= addr < m[1]), None)
                # A return address points past its call: step back inside it.
                where[key] = hit and (hit[2], addr - base[hit[2]] - (depth > 0))
    names = {key: "[unmapped]" for key, obj in where.items() if not obj}
    by_object = collections.defaultdict(list)
    for key, obj in where.items():
        if obj:
            by_object[obj[0]].append((key, obj[1]))
    for path, addrs in by_object.items():
        query = "\n".join(hex(rel) for _, rel in addrs)
        out = subprocess.run(
            ["addr2line", "-f", "-C", "-e", path],
            input=query, capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        for (key, _), name in zip(addrs, out[0::2]):
            names[key] = name if name != "??" else f"[{path.rsplit('/', 1)[-1]}]"
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dump")
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("--callers", metavar="SUBSTRING",
                    help="also list who calls the functions whose name contains this")
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


if __name__ == "__main__":
    main()
