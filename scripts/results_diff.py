#!/usr/bin/env python3
"""Compare two results/ directories written by the paper binaries.

    scripts/results_diff.py OLD NEW

Every *.json file is parsed and walked in both trees. A key present in
only one of them is reported as an added or removed path, with array
indices folded (runs[].result.timeslices.slices[].rmw_ops) and the number
of places it occurs; so is an array element past the other side's length
(runs[], with the number of elements). Changed leaf values are grouped by
folded path: a path with one change prints it at its full path with the
old and new value, and a path with more prints one line with the number
of changed values and the first change.
Every *.csv file is compared cell by cell, one line per changed cell. A
file present on one side only counts as added or removed.

Exits 1 when a value changed or a key or file disappeared, and 0 when
NEW only adds keys or files; 2 on a usage error. Standard library only.
"""
import argparse
import csv
import json
import os
import sys


def fold(path):
    """`path` with every array index replaced by []."""
    out, i = [], 0
    while i < len(path):
        if path[i] == "[":
            j = path.index("]", i)
            out.append("[]")
            i = j + 1
        else:
            out.append(path[i])
            i += 1
    return "".join(out)


def join(path, key):
    return key if not path else path + "." + key


class FileDiff:
    def __init__(self):
        self.changed = []   # (path, old, new)
        self.added = {}     # folded path -> count
        self.removed = {}   # folded path -> count

    def walk(self, old, new, path=""):
        if isinstance(old, dict) and isinstance(new, dict):
            for k in old:
                if k in new:
                    self.walk(old[k], new[k], join(path, k))
                else:
                    p = fold(join(path, k))
                    self.removed[p] = self.removed.get(p, 0) + 1
            for k in new:
                if k not in old:
                    p = fold(join(path, k))
                    self.added[p] = self.added.get(p, 0) + 1
        elif isinstance(old, list) and isinstance(new, list):
            # Elements past the shorter list's end were appended or dropped.
            if len(old) != len(new):
                side = self.added if len(new) > len(old) else self.removed
                p = fold(path) + "[]"
                side[p] = side.get(p, 0) + abs(len(new) - len(old))
            for i, (a, b) in enumerate(zip(old, new)):
                self.walk(a, b, "%s[%d]" % (path, i))
        elif old != new:
            self.changed.append((path, old, new))

    def csv(self, old_rows, new_rows):
        header = old_rows[0] if old_rows else []
        if len(old_rows) != len(new_rows):
            self.changed.append(("rows", len(old_rows), len(new_rows)))
        for r, (a, b) in enumerate(zip(old_rows, new_rows)):
            if len(a) != len(b):
                self.changed.append(("row %d cells" % r, len(a), len(b)))
            for c, (x, y) in enumerate(zip(a, b)):
                if x != y:
                    name = header[c] if r > 0 and c < len(header) else ""
                    where = "row %d col %d" % (r, c)
                    if name:
                        where += " (%s)" % name
                    self.changed.append((where, x, y))


def load(path):
    if path.endswith(".json"):
        with open(path) as f:
            return json.load(f)
    with open(path, newline="") as f:
        return list(csv.reader(f))


def report_files(old_dir, new_dir):
    def names(d):
        return {n for n in os.listdir(d) if n.endswith((".json", ".csv"))}
    old, new = names(old_dir), names(new_dir)
    return sorted(old | new), old, new


def main():
    ap = argparse.ArgumentParser(
        description="Diff two results/ directories (JSON keys and values, "
                    "CSV cells).")
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args()
    for d in (args.old, args.new):
        if not os.path.isdir(d):
            ap.error("not a directory: " + d)

    files, old_names, new_names = report_files(args.old, args.new)
    n_changed = n_removed = n_added = 0
    for name in files:
        if name not in new_names:
            print("%s: removed file" % name)
            n_removed += 1
            continue
        if name not in old_names:
            print("%s: added file" % name)
            n_added += 1
            continue
        d = FileDiff()
        a = load(os.path.join(args.old, name))
        b = load(os.path.join(args.new, name))
        if name.endswith(".json"):
            d.walk(a, b)
        else:
            d.csv(a, b)
        if not (d.changed or d.added or d.removed):
            continue
        print("%s: %d changed, %d removed, %d added" %
              (name, len(d.changed), len(d.removed), len(d.added)))
        for p, count in sorted(d.removed.items()):
            print("  removed %s (%d)" % (p, count))
        for p, count in sorted(d.added.items()):
            print("  added   %s (%d)" % (p, count))
        groups = {}  # folded path -> its changes, in walk order
        for c in d.changed:
            key = fold(c[0]) if name.endswith(".json") else c[0]
            groups.setdefault(key, []).append(c)
        for key, changes in groups.items():
            p, x, y = changes[0]
            if len(changes) == 1:
                print("  changed %s: %s -> %s" % (p, x, y))
            else:
                print("  changed %s (%d values), first %s: %s -> %s" %
                      (key, len(changes), p, x, y))
        n_changed += len(d.changed)
        n_removed += len(d.removed)
        n_added += len(d.added)
    print("%d files: %d changed values, %d removed keys or files, "
          "%d added keys or files" % (len(files), n_changed, n_removed,
                                      n_added))
    return 1 if n_changed or n_removed else 0


if __name__ == "__main__":
    sys.exit(main())
