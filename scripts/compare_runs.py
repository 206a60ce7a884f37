#!/usr/bin/env python3
"""Compare two artifact trees of scenario runs and print where they differ.

Usage: python scripts/compare_runs.py DIR_A DIR_B

Both trees must hold the same files.  Every file other than a
``manifest.json`` (the CSVs and ``report.json``) must match byte for byte.
A manifest must match as JSON, key order included, apart from
``wall_clock_s``, the output directory the run was written to
(``config.outputs``) and the values of the two wall-clock checks
(``closed_form_runtime``, ``parabolic_oracle_runtime``).  For each file
that differs the first difference is printed, and then its drift: the
largest |a - b| over the numeric leaves found in both, and the count of
other mismatched leaves, so a check whose status flips counts as one.  The
leaves of a ``report.json`` or a ``manifest.json`` (as compared, without the
ignored fields) are its JSON values; those of a CSV are its
comma-separated fields, numeric where they parse as a float.  For a ``manifest.json`` it then lists each check whose status differs,
as ``name: old -> new`` (``absent`` for a check in one manifest only), or
prints ``check statuses: unchanged``: a changed ``detail`` string is a
mismatch too, so the count alone cannot tell.  Exit 0 when the trees agree,
1 when any file differs; a reader that closes the output early (``| head``)
ends the script quietly with that status.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

_RUNTIME_CHECKS = ("closed_form_runtime", "parabolic_oracle_runtime")


def _files(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def _manifest(path: Path) -> dict:
    m = json.loads(path.read_text(encoding="utf-8"))
    m.pop("wall_clock_s", None)
    m.get("config", {}).pop("outputs", None)
    for name in _RUNTIME_CHECKS:
        m.get("summary", {}).get(name, {}).pop("value", None)
    return m


def _field(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv(path: Path) -> list:
    return [[_field(x) for x in line.split(",")]
            for line in path.read_text(encoding="utf-8").splitlines()]


_DRIFT_LOADERS = {
    "manifest.json": _manifest,
    "report.json": lambda path: json.loads(path.read_text(encoding="utf-8")),
}


def _json_diff(a, b, where: str):
    """The first place where two JSON values differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return f"{where}: keys {list(a)} != {list(b)}"
        for k in a:
            d = _json_diff(a[k], b[k], f"{where}.{k}")
            if d:
                return d
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{where}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            d = _json_diff(x, y, f"{where}[{i}]")
            if d:
                return d
        return None
    return None if repr(a) == repr(b) else f"{where}: {a!r} != {b!r}"


def _drift(a, b) -> tuple[float, int]:
    """(max |a - b| over finite numeric leaves, count of other mismatched leaves).

    A key or list entry present on one side only counts as one mismatch.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        pairs = [(a[k], b[k]) for k in a if k in b]
        missing = len(a.keys() ^ b.keys())
    elif isinstance(a, list) and isinstance(b, list):
        pairs, missing = list(zip(a, b)), abs(len(a) - len(b))
    elif all(isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
             for x in (a, b)):
        return abs(a - b), 0
    else:
        return 0.0, int(repr(a) != repr(b))
    worst = 0.0
    for x, y in pairs:
        d, n = _drift(x, y)
        worst, missing = max(worst, d), missing + n
    return worst, missing


def _status_changes(a: dict, b: dict) -> list[str]:
    """``name: old -> new`` for each check of two manifests whose status differs."""
    sa, sb = a.get("summary", {}), b.get("summary", {})
    lines = []
    for name in list(sa) + [k for k in sb if k not in sa]:
        old, new = (s.get(name, {}).get("status", "absent") for s in (sa, sb))
        if old != new:
            lines.append(f"{name}: {old} -> {new}")
    return lines


def _bytes_diff(a: bytes, b: bytes):
    if a == b:
        return None
    la, lb = a.splitlines(), b.splitlines()
    for n, (x, y) in enumerate(zip(la, lb), start=1):
        if x != y:
            return f"line {n}: {x.decode(errors='replace')!r} != {y.decode(errors='replace')!r}"
    return f"line {min(len(la), len(lb)) + 1}: {len(la)} lines != {len(lb)} lines"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)

    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            print(f"not a directory: {d}")
            return 1
    names = _files(args.dir_a)
    names_b = _files(args.dir_b)
    if names != names_b:
        only = sorted(set(names) ^ set(names_b))[0]
        print(f"{only}: only in {args.dir_a if only in names else args.dir_b}")
        return 1
    differ = 0
    for name in names:
        pa, pb = args.dir_a / name, args.dir_b / name
        if pa.name == "manifest.json":
            diff = _json_diff(_manifest(pa), _manifest(pb), "manifest")
        else:
            diff = _bytes_diff(pa.read_bytes(), pb.read_bytes())
        if not diff:
            continue
        differ += 1
        print(f"{name}: {diff}")
        load = _DRIFT_LOADERS.get(pa.name, _csv if pa.suffix == ".csv" else None)
        if load:
            a, b = load(pa), load(pb)
            worst, other = _drift(a, b)
            print(f"{name}: max |delta| {worst:.3g} over numeric leaves, "
                  f"{other} non-numeric mismatches")
            if pa.name == "manifest.json":
                for line in _status_changes(a, b) or ["check statuses: unchanged"]:
                    print(f"{name}: {line}")
    if differ:
        return 1
    print(f"identical: {len(names)} files")
    return 0


if __name__ == "__main__":
    # Output is printed only on the way to exit 1, or last, after the status is known.
    code = 1
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Send what is left in the buffer to /dev/null, so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
