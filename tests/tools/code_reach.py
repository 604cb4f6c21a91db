#!/usr/bin/env python3
"""Measure how much of src/'s machine code only tests reach. Stdlib only.

    python3 tests/tools/code_reach.py

Configures build-code-reach/ at the repository root at -O0 with one
section per function and data object, linked with --gc-sections, and
builds the tree and perfbench's standalone project (into
build-code-reach/perfbench). At -O0 nothing is inlined, so a function that
an executable calls is linked into it, and the linker drops every section
that nothing references.

Each function defined in a src/ archive then falls in one of three
classes: linked into an executable that is not a test (a daemon,
perfbench, a bench or an example), linked only into executables under
tests/, or linked into none. Symbols are matched by name, local ones too,
so a same-named local function in another binary can make code look
reached, but never unreached. A function that several objects define (an
inline function or a template instance) counts once, under the first.

Header-only code is invisible to it: an inline or template function is
emitted into the objects that call it, not into a src/ archive, so one
that only tests call, or nothing calls, counts in no class. Such code has
to be found by reading.

Prints the src/ text total, each class's total, a per-object table and the
akadns:: functions of the two classes that no runtime binary reaches.
Exits 1 when any akadns:: function is reached by nothing.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build-code-reach"
CMAKE_FLAGS = [
    "-DCMAKE_BUILD_TYPE=None",  # no build-type flags: -O0 below is the only level
    "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]
TEXT_TYPES = set("TtWw")
# Mangled names in namespace akadns: functions, members (any cv/ref
# qualifier), locals such as lambdas, and virtual-call thunks.
AKADNS = re.compile(r"_Z(?:T[hv][n\d_]*)?Z?N[rVKRO]*6akadns")


def build():
    jobs = str(os.cpu_count() or 1)
    for source, out, targets in ((ROOT, BUILD, []),
                                 (ROOT / "perfbench", BUILD / "perfbench",
                                  ["--target", "akadns_perfbench"])):
        for cmd in (["cmake", "-S", str(source), "-B", str(out), *CMAKE_FLAGS],
                    ["cmake", "--build", str(out), "-j", jobs, *targets]):
            print("+ " + " ".join(cmd), file=sys.stderr, flush=True)
            subprocess.run(cmd, check=True, stdout=sys.stderr)


def nm(path, *flags):
    return subprocess.run(["nm", "--defined-only", *flags, str(path)], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.splitlines()


def executables():
    """(runtime, test) lists of linked executables in the build tree."""
    runtime, tests = [], []
    for dirpath, dirnames, filenames in os.walk(BUILD):
        dirnames[:] = [d for d in dirnames if d != "CMakeFiles"]
        for name in filenames:
            path = Path(dirpath, name)
            if not os.access(path, os.X_OK):
                continue
            with open(path, "rb") as f:
                if f.read(4) != b"\x7fELF":
                    continue
            (tests if path.relative_to(BUILD).parts[0] == "tests" else runtime).append(path)
    return sorted(runtime), sorted(tests)


def linked_names(paths):
    names = set()
    for path in paths:
        for line in nm(path):
            parts = line.split(maxsplit=2)
            if len(parts) == 3 and parts[1] in TEXT_TYPES:
                names.add(parts[2])
    return names


def archive_functions():
    """{mangled name: (object, size)} over every function in a src/ archive."""
    functions = {}
    for archive in sorted((BUILD / "src").rglob("lib*.a")):
        module = archive.parent.name
        member = None
        for line in nm(archive, "-S"):
            if line.endswith(":") and " " not in line:
                member = f"{module}/{line[:-1]}"
                continue
            parts = line.split(maxsplit=3)
            if len(parts) == 4 and parts[2] in TEXT_TYPES:
                functions.setdefault(parts[3], (member, int(parts[1], 16)))
    return functions


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return out.splitlines()


def kb(size):
    return f"{size / 1000:.1f}"


def main():
    build()
    runtime, tests = executables()
    runtime_names, test_names = linked_names(runtime), linked_names(tests)
    classes = ("runtime", "test-only", "nothing")
    totals = dict.fromkeys(classes, 0)
    per_object = {}
    listed = {"test-only": [], "nothing": []}
    for name, (obj, size) in archive_functions().items():
        cls = ("runtime" if name in runtime_names else
               "test-only" if name in test_names else "nothing")
        totals[cls] += size
        row = per_object.setdefault(obj, dict.fromkeys(classes, 0))
        row[cls] += size
        if cls != "runtime" and AKADNS.match(name):
            listed[cls].append((obj, size, name))

    print(f"{len(runtime)} runtime executables (daemons, perfbench, benches, examples), "
          f"{len(tests)} test executables")
    print(f"src/ text            {kb(sum(totals.values())):>8} KB")
    for cls in classes:
        print(f"reached {cls:<12} {kb(totals[cls]):>8} KB")
    print()
    print(f"{'object':<40} {'text KB':>8} {'test-only':>10} {'nothing':>8}")
    for obj, row in sorted(per_object.items(),
                           key=lambda item: (-item[1]["test-only"] - item[1]["nothing"], item[0])):
        if row["test-only"] or row["nothing"]:
            print(f"{obj:<40} {kb(sum(row.values())):>8} {kb(row['test-only']):>10} "
                  f"{kb(row['nothing']):>8}")
    for cls, entries in listed.items():
        print()
        print(f"akadns:: functions reached {'only by tests' if cls == 'test-only' else 'by nothing'}"
              f" ({len(entries)}, {kb(sum(size for _, size, _ in entries))} KB):")
        entries.sort()
        for (obj, size, _), pretty in zip(entries, demangle([name for _, _, name in entries])):
            print(f"  {size:>6}  {obj:<36} {pretty}")
    return 1 if listed["nothing"] else 0


if __name__ == "__main__":
    sys.exit(main())
