#!/usr/bin/env python3
"""Counts source lines and RunConfig knobs, so changes can report both.

Run from the repository root:

    python3 tools/loc_knobs.py

Prints one line per C++ file under src/ and one per module (a directory
under src/), then the total, each with its count of lines that are neither
blank nor start with "//" once leading whitespace is stripped. The last
line is the number of fields of RunConfig in src/runtime/session.h.
Standard library only.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_CONFIG_HEADER = SRC / "runtime" / "session.h"


def code_lines(path):
    count = 0
    for line in path.read_text().splitlines():
        s = line.strip()
        if s and not s.startswith("//"):
            count += 1
    return count


def run_config_fields(header):
    text = header.read_text()
    start = text.find("struct RunConfig {")
    if start < 0:
        raise SystemExit(f"loc_knobs: no 'struct RunConfig {{' in {header}")
    body = []
    depth = 0
    for line in text[start:].splitlines()[1:]:
        code = line.split("//", 1)[0]
        if depth == 0 and code.strip().startswith("};"):
            break
        if depth == 0:
            body.append(code)
        depth += code.count("{") - code.count("}")
    # One field per statement at the struct's own brace depth.
    return sum(1 for stmt in re.split(r";", "\n".join(body)) if stmt.strip())


def main():
    files = sorted(p for p in SRC.rglob("*") if p.suffix in (".h", ".cc"))
    modules = {}
    total = 0
    for path in files:
        n = code_lines(path)
        rel = path.relative_to(ROOT).as_posix()
        print(f"{rel} {n}")
        module = path.relative_to(SRC).parts[0]
        modules[module] = modules.get(module, 0) + n
        total += n
    for module in sorted(modules):
        print(f"module src/{module} {modules[module]}")
    print(f"total {total}")
    print(f"run_config_fields {run_config_fields(RUN_CONFIG_HEADER)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
