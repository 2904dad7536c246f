#!/usr/bin/env python3
"""Counts non-blank, non-comment C++ lines under src/, per module.

A measuring tool, not a gate: simplicity changes report "net lines
removed" with it instead of counting by hand.

  ci/code_lines.py                  working tree, per module
  ci/code_lines.py REV              the tree at git revision REV (read with
                                    git ls-tree / git show; no checkout)
  ci/code_lines.py --base OLD [REV] change from OLD to REV (or the working
                                    tree), per module
  --files                           list every file, not just modules

A line counts when anything but whitespace is left after removing //
and /* */ comments; comment markers inside string and character literals
are not comments.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")


def code_lines(text):
    """Number of lines of `text` holding code once comments are removed."""
    count = 0
    in_block = False
    for line in text.splitlines():
        code = False
        i, n = 0, len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    break
                in_block, i = False, end + 2
                continue
            ch = line[i]
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block, i = True, i + 2
                continue
            if ch in "\"'":
                # Skip the literal; an unterminated one runs to end of line.
                j = i + 1
                while j < n and line[j] != ch:
                    j += 2 if line[j] == "\\" else 1
                code, i = True, j + 1
                continue
            if not ch.isspace():
                code = True
            i += 1
        count += code
    return count


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout


def sources(rev):
    """{path: text} of every C++ source under src/, at `rev` or on disk."""
    if rev is None:
        out = {}
        for dirpath, _, names in os.walk(os.path.join(ROOT, "src")):
            for name in names:
                if name.endswith(EXTENSIONS):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8", errors="replace") as f:
                        out[os.path.relpath(path, ROOT)] = f.read()
        return out
    paths = git("ls-tree", "-r", "--name-only", rev, "--", "src/").split()
    return {p: git("show", f"{rev}:{p}") for p in paths if p.endswith(EXTENSIONS)}


def counts(rev):
    return {path: code_lines(text) for path, text in sources(rev).items()}


def module(path):
    parts = path.split("/")
    return parts[1] if len(parts) > 2 else "(src)"


def by_module(per_file):
    out = {}
    for path, n in per_file.items():
        out[module(path)] = out.get(module(path), 0) + n
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", nargs="?", help="git revision (default: working tree)")
    ap.add_argument("--base", help="report the change from this revision")
    ap.add_argument("--files", action="store_true", help="list every file")
    args = ap.parse_args()

    new = counts(args.rev)
    old = counts(args.base) if args.base else None

    def report(table_new, table_old):
        # With a base, only the rows that changed.
        for k in sorted(set(table_new) | set(table_old or {})):
            a = table_new.get(k, 0)
            if table_old is None:
                print(f"{a:7d}  {k}")
            elif a != table_old.get(k, 0):
                b = table_old.get(k, 0)
                print(f"{b:7d} -> {a:7d}  {a - b:+6d}  {k}")

    if args.files:
        report(new, old)
        print()
    report(by_module(new), by_module(old) if old is not None else None)
    total_new = sum(new.values())
    if old is None:
        print(f"{total_new:7d}  total")
    else:
        total_old = sum(old.values())
        print(f"{total_old:7d} -> {total_new:7d}  {total_new - total_old:+6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
