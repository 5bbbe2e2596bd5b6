#!/usr/bin/env python3
"""Compare two output trees, such as two passes of run_all_presets.py, file by file.

Reports each file found in only one tree and each file whose bytes differ.
For a differing CSV (run.csv, spectrum.csv) or snapshot it also reports, per
column, the largest absolute and relative change between the trees.  A
snapshot's columns are its header values and its coefficients, in file
order.  Exits 0 only when the trees are byte-identical, 1 when they are not,
and 2 on a usage error.

Usage: python scripts/compare_runs.py A B
"""

import math
import sys
from pathlib import Path


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def columns(path: Path) -> dict[str, list[float]]:
    """Numeric columns of a snapshot, or of a CSV after its `#` comment lines."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if path.suffix == ".snapshot":
        cols = {key.strip(): [float(value)] for key, _, value in
                (line.partition("=") for line in lines[:4])}
        cols["coefficient"] = [float(line.split()[2]) for line in lines[4:]]
        return cols
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    names, body = rows[0], rows[1:]
    return {name: [float(row[i]) for row in body] for i, name in enumerate(names)}


def change(x: float, y: float) -> tuple[float, float]:
    """Absolute and relative change from x to y; equal NaNs do not change."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, 0.0
    d = abs(y - x)
    if math.isnan(d):
        return math.inf, math.inf
    return d, d / abs(x) if x else math.inf


def column_report(a: Path, b: Path) -> list[str]:
    """One line per column of two numeric files: its largest changes, or how it fails to match."""
    try:
        ca, cb = columns(a), columns(b)
    except (ValueError, IndexError) as exc:
        return [f"not comparable column by column: {exc}"]
    out = []
    for name in [*ca, *(n for n in cb if n not in ca)]:
        if name not in ca or name not in cb:
            out.append(f"{name}: only in {'B' if name in cb else 'A'}")
        elif len(ca[name]) != len(cb[name]):
            out.append(f"{name}: {len(ca[name])} rows in A, {len(cb[name])} in B")
        else:
            changes = [change(x, y) for x, y in zip(ca[name], cb[name])]
            abs_max = max((c[0] for c in changes), default=0.0)
            rel_max = max((c[1] for c in changes), default=0.0)
            out.append(f"{name}: max abs change {abs_max:.3g}, max rel change {rel_max:.3g}")
    return out


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(arg).is_dir() for arg in args):
        print("usage: compare_runs.py A B  (two output directories)", file=sys.stderr)
        return 2
    a, b = map(Path, args)
    fa, fb = _files(a), _files(b)
    differ = 0
    for rel in sorted(fa | fb):
        if rel not in fb or rel not in fa:
            print(f"only in {'A' if rel in fa else 'B'}: {rel}")
            differ += 1
        elif (a / rel).read_bytes() != (b / rel).read_bytes():
            print(f"differs: {rel}")
            differ += 1
            if rel.endswith((".csv", ".snapshot")):
                for line in column_report(a / rel, b / rel):
                    print(f"    {line}")
    print(f"{len(fa | fb)} files, {differ} not byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
