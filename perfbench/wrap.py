#!/usr/bin/env python3
"""Generates the link-time MPI_* wrappers of the traced benchmark build.

The substrate's MPI_* functions have C++ linkage, so `-Wl,--wrap` must name
their mangled symbols. This script reads the mangled names of the functions
defined in the built substrate library (`nm`) and their signatures from the
public header, and writes

  * an include file with one `extern "C"` pair per function:
    `__real_<mangled>` (the original) and `__wrap_<mangled>` (a span around
    the original), plus the table of span names;
  * a linker response file with one `--wrap=<mangled>` per function.

Usage: wrap.py --lib libxmpi.a --header mpi.h --out wrap_gen.inc --flags wrap_flags.txt
"""
import argparse
import re
import subprocess
import sys


def header_signatures(text):
    """Maps each `int MPI_*(...)` declaration to its parameter list."""
    text = re.sub(r"//[^\n]*", "", text)
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    sigs = {}
    for m in re.finditer(r"\bint\s+(MPI_\w+)\s*\(([^;{]*?)\)\s*;", text, flags=re.S):
        name, params = m.group(1), " ".join(m.group(2).split())
        if "std::" in params or "..." in params:
            continue
        sigs[name] = params
    return sigs


def split_params(params):
    """Splits a parameter list into (type, name) pairs, naming unnamed ones."""
    if params in ("", "void"):
        return []
    out = []
    for i, p in enumerate(x.strip() for x in params.split(",")):
        m = re.match(r"^(.*?[\s\*&])([A-Za-z_]\w*)$", p)
        named = m is not None and re.search(r"[A-Za-z_]", m.group(1).replace("const", "")) is not None
        if named:
            out.append((m.group(1).strip(), m.group(2)))
        else:
            out.append((p, f"a{i}"))
    return out


def mangled_names(lib):
    """Maps MPI_* function names to their mangled symbols defined in `lib`."""
    text = subprocess.run(["nm", "--defined-only", lib], check=True, capture_output=True,
                          text=True).stdout
    found = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 3 or parts[1] != "T":
            continue
        sym = parts[2]
        m = re.match(r"^_Z(\d+)(MPI_\w+)", sym)
        if not m:
            continue
        name = m.group(2)[: int(m.group(1))]
        found.setdefault(name, set()).add(sym)
    return {k: next(iter(v)) for k, v in found.items() if len(v) == 1}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--lib", required=True)
    ap.add_argument("--header", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--flags", required=True)
    args = ap.parse_args()

    with open(args.header) as f:
        sigs = header_signatures(f.read())
    syms = mangled_names(args.lib)
    names = sorted(n for n in sigs if n in syms)
    if not names:
        sys.exit("wrap.py: no MPI_* function found in both the header and the library")

    inc = ["// Generated by perfbench/wrap.py; do not edit.",
           f"constexpr int kMpiFnCount = {len(names)};",
           "constexpr char const* kMpiFnNames[kMpiFnCount] = {"]
    inc += [f'    "{n}",' for n in names]
    inc.append("};")
    for idx, n in enumerate(names):
        params = split_params(sigs[n])
        decl = ", ".join(f"{t} {v}" for t, v in params)
        call = ", ".join(v for _, v in params)
        sym = syms[n]
        inc.append(f'extern "C" int __real_{sym}({decl});')
        inc.append(f'extern "C" int __wrap_{sym}({decl}) {{')
        inc.append(f"    MpiSpan span_({idx});")
        inc.append(f"    return __real_{sym}({call});")
        inc.append("}")
    with open(args.out, "w") as f:
        f.write("\n".join(inc) + "\n")
    with open(args.flags, "w") as f:
        f.write("\n".join(f"--wrap={syms[n]}" for n in names) + "\n")


if __name__ == "__main__":
    main()
