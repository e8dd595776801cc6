"""Compare two roots written by tests/output_matrix.py.

Usage:
    python tests/output_diff.py ROOT_A ROOT_B

For each matrix entry (an output directory <name>/ with its <name>.exit and
<name>.stderr, or the library-iv directories) it prints how many of its
files are byte-identical in the two roots.  The files that differ are read
as records: a JSON file, a CSV row, or a result repr (library-iv).  A
record is converged if it says converged on both sides, capped if it says
not converged on either, and other if it carries no converged field.  Per
category it prints the largest relative change |a - b| / max(|a|, |b|) of
each numeric field, a field being the record's key path with list indices
dropped (so "params.factors[].nu0" gathers both factors).  Fields present
on one side only, and differing files that hold no numbers, are listed as
such.

pytest does not collect this file: its name has no test_ prefix.
"""

import ast
import csv
import json
import os
import sys
from collections import defaultdict

CATEGORIES = ("converged", "capped", "other")


def entries(root):
    """{entry name: [file paths relative to root]} of one matrix root."""
    out = defaultdict(list)
    for name in os.listdir(root):
        path = os.path.join(root, name)
        if os.path.isdir(path):
            for dirpath, _, files in os.walk(path):
                for f in files:
                    rel = os.path.relpath(os.path.join(dirpath, f), root)
                    out[rel.split(os.sep)[0]].append(rel)
        else:
            out[os.path.splitext(name)[0]].append(name)
    return out


def _flatten(value, path, out):
    """(key path, number) of every number in a parsed JSON value."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return
    if isinstance(value, (int, float)):
        out.append((path, float(value)))
    elif isinstance(value, dict):
        for k, v in value.items():
            _flatten(v, f"{path}.{k}" if path else str(k), out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(v, f"{path}[{i}]", out)


def _repr_numbers(node, path, out, flags):
    """_flatten for the AST of a repr: keyword arguments name the path, and
    converged=... goes to flags."""
    if isinstance(node, ast.Call):
        for i, arg in enumerate(node.args):
            _repr_numbers(arg, f"{path}[{i}]", out, flags)
        for kw in node.keywords:
            sub = f"{path}.{kw.arg}" if path else kw.arg
            if kw.arg == "converged" and isinstance(kw.value, ast.Constant):
                flags.append(bool(kw.value.value))
            _repr_numbers(kw.value, sub, out, flags)
    elif isinstance(node, (ast.Tuple, ast.List)):
        for i, elt in enumerate(node.elts):
            _repr_numbers(elt, f"{path}[{i}]", out, flags)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = []
        _repr_numbers(node.operand, path, inner, flags)
        out.extend((p, -v) for p, v in inner)
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        out.append((path, float(node.value)))
    elif isinstance(node, ast.Name) and node.id in ("inf", "nan"):
        out.append((path, float(node.id)))


def records(path):
    """[(converged flag or None, [(key path, number)])] of one file."""
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode("utf-8", errors="replace")
    if path.endswith(".json"):
        payload = json.loads(text)
        numbers = []
        _flatten(payload, "", numbers)
        flag = payload.get("converged") if isinstance(payload, dict) else None
        return [(flag if isinstance(flag, bool) else None, numbers)]
    if path.endswith(".csv"):
        rows = list(csv.DictReader(text.splitlines()))
        out = []
        for row in rows:
            numbers = []
            for k, v in row.items():
                try:
                    numbers.append((k, float(v)))
                except (TypeError, ValueError):
                    pass
            flag = {"True": True, "False": False}.get(row.get("converged"))
            out.append((flag, numbers))
        return out
    if path.endswith(".txt"):
        try:
            tree = ast.parse(text.strip(), mode="eval")
        except SyntaxError:
            return [(None, [])]
        numbers, flags = [], []
        _repr_numbers(tree.body, "", numbers, flags)
        return [(flags[0] if flags else None, numbers)]
    try:
        return [(None, [("value", float(text))])]
    except ValueError:
        return [(None, [])]


def _field(path):
    """A key path with its list indices dropped."""
    out, depth = [], 0
    for ch in path:
        if ch == "[":
            depth += 1
            out.append("[]")
        elif ch == "]":
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def _category(flag_a, flag_b):
    if flag_a is None and flag_b is None:
        return "other"
    return "converged" if flag_a and flag_b else "capped"


def compare_entry(root_a, root_b, files_a, files_b):
    """(identical, total, {category: {field: max rel change}}, counts, notes)."""
    names = sorted(set(files_a) | set(files_b))
    identical = 0
    worst = {c: {} for c in CATEGORIES}
    counts = dict.fromkeys(CATEGORIES, 0)
    notes = []
    for rel in names:
        pa, pb = os.path.join(root_a, rel), os.path.join(root_b, rel)
        if not (os.path.exists(pa) and os.path.exists(pb)):
            notes.append(f"{rel} only in {'A' if os.path.exists(pa) else 'B'}")
            continue
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            if fa.read() == fb.read():
                identical += 1
                continue
        try:
            recs_a, recs_b = records(pa), records(pb)
        except (ValueError, UnicodeDecodeError):
            notes.append(f"{rel} differs and could not be read")
            continue
        if len(recs_a) != len(recs_b):
            notes.append(f"{rel} differs in its number of records")
            continue
        if [dict(n) for _, n in recs_a] == [dict(n) for _, n in recs_b]:
            notes.append(f"{rel} differs in no number")
            continue
        for (flag_a, nums_a), (flag_b, nums_b) in zip(recs_a, recs_b):
            va, vb = dict(nums_a), dict(nums_b)
            if va == vb:
                continue
            cat = _category(flag_a, flag_b)
            counts[cat] += 1
            for key in sorted(set(va) | set(vb)):
                field = _field(key)
                if key not in va or key not in vb:
                    notes.append(f"{rel}: {key} only in {'A' if key in va else 'B'}")
                    continue
                a, b = va[key], vb[key]
                scale = max(abs(a), abs(b))
                rel_change = 0.0 if a == b else (abs(a - b) / scale if scale else 0.0)
                if rel_change != rel_change:  # a NaN on one side
                    rel_change = float("inf")
                worst[cat][field] = max(worst[cat].get(field, 0.0), rel_change)
    return identical, len(names), worst, counts, notes


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tests/output_diff.py ROOT_A ROOT_B", file=sys.stderr)
        return 2
    root_a, root_b = argv
    ea, eb = entries(root_a), entries(root_b)
    for name in sorted(set(ea) | set(eb)):
        identical, total, worst, counts, notes = compare_entry(
            root_a, root_b, ea.get(name, []), eb.get(name, []))
        print(f"{name}: {identical}/{total} files byte-identical")
        for cat in CATEGORIES:
            if counts[cat]:
                changes = ", ".join(f"{f} {v:.1e}" for f, v in sorted(worst[cat].items())
                                    if v > 0.0)
                print(f"  {cat} ({counts[cat]} records): {changes or 'no numeric change'}")
        for note in notes:
            print(f"  {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
