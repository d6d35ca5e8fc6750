"""Compare the canonical reports of two triadlab checkouts.

    python3 tools/refactor_gate.py BASE HEAD

BASE and HEAD are roots of triadlab checkouts, each holding ``src/triadlab``.
For every catalog example, seed (11 and 12), engine mode (``ad``, ``fd``)
and run kind (normal, ``--negative-controls``), at 4 points, and for two
wide runs (r5-perturbed-J, seed 11, ``fd``, normal, 300 points; r9-standard,
seed 11, ``ad``, normal, 300 points), 58 reports in all, the script runs
``run_suite`` and ``emit_report`` in both checkouts, each in its own fresh
interpreter, BASE under ``PYTHONHASHSEED=1`` and HEAD under ``2``, and
compares the JSON reports.  So ``refactor_gate.py . .`` is also the check
that no report depends on the hash seed.  It prints:

* every verdict change (a record's ``passed``, or a report's ``ok``);
* every change to a report's record list (name, variant, point index) or to
  a record field other than the residual;
* the worst residual move per mode, absolute and as a share of the record's
  tolerance, with the record that made it;
* for each mode and record name, the worst residual as a share of its
  tolerance in BASE and in HEAD, and the name's worst move if it moved;
* how many reports match byte for byte, and the key of each that does not;
* the total, non-blank and code line counts of ``src/triadlab`` in each
  checkout, a code line being a non-blank line outside docstrings and
  comments.

It exits 1 if a verdict, a record list or a non-residual field differs, or
if a residual moves by more than 1e-13, the refactor bound, else 0.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tokenize

MODES = ("ad", "fd")
KINDS = (False, True)          # negative_controls
SEEDS = (11, 12)
POINTS = 4
# (example, seed, mode, negative controls, points): batches far wider
# than the others, one per mode, so that a store policy or a seed layout
# that depends on the batch width shows in the reports
WIDE = (("r5-perturbed-J", 11, "fd", False, 300),
        ("r9-standard", 11, "ad", False, 300))
MAX_MOVE = 1e-13


def emit(out_path: str) -> None:
    """Write every report of the configured sweep to ``out_path``."""
    import triadlab

    reports = {}
    configs = [(ex, seed, mode, controls, POINTS)
               for ex in sorted(triadlab.catalog()) for seed in SEEDS
               for mode in MODES for controls in KINDS]
    for ex, seed, mode, controls, points in configs + list(WIDE):
        cfg = triadlab.RunConfig(example_id=ex, points=points, seed=seed,
                                 mode=mode, negative_controls=controls)
        rep = triadlab.run_suite(cfg)
        key = "%s seed=%d %s%s" % (ex, seed, mode,
                                   " controls" if controls else "")
        if points != POINTS:
            key += " points=%d" % points
        reports[key] = triadlab.emit_report(rep, "json").decode()
    with open(out_path, "w") as fh:
        json.dump(reports, fh)


def run_checkout(root: str, out_path: str, hash_seed: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.abspath(root), "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    cmd = [sys.executable, os.path.abspath(__file__), "--emit", out_path]
    return subprocess.Popen(cmd, env=env, cwd=root)


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# tokens that hold no code
_NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER)


def code_lines(text: str) -> set:
    """Numbers of the non-blank lines of the module source ``text`` that
    hold code: outside docstrings, and not a comment alone."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    lines = text.splitlines()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return {n for n in code - docs if lines[n - 1].strip()}


def source_lines(root: str) -> tuple:
    """Total, non-blank and code lines of the ``.py`` files under
    src/triadlab."""
    total = nonblank = code = 0
    for folder, _, names in os.walk(os.path.join(root, "src", "triadlab")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as fh:
                    text = fh.read()
                lines = text.splitlines()
                total += len(lines)
                nonblank += sum(1 for line in lines if line.strip())
                code += len(code_lines(text))
    return total, nonblank, code


def record_key(r: dict) -> tuple:
    return (r["name"], r["variant"], r["point_index"])


def compare(base: dict, head: dict) -> int:
    problems = []
    identical = 0
    moved = []
    worst = {m: (0.0, 0.0, "") for m in MODES}       # abs move, share, where
    # name -> [worst residual / tolerance in BASE, in HEAD, move, share]
    by_name = {m: {} for m in MODES}
    if sorted(base) != sorted(head):
        problems.append("report sets differ")
    for key in sorted(set(base) & set(head)):
        a, b = json.loads(base[key]), json.loads(head[key])
        for side, rep in enumerate((a, b)):
            named = by_name[rep["config"]["mode"]]
            for r in rep["records"]:
                worst_n = named.setdefault(r["name"], [0.0, 0.0, 0.0, 0.0])
                margin = (r["residual"] / r["tolerance"] if r["tolerance"]
                          else math.inf)
                worst_n[side] = max(worst_n[side], margin)
        if base[key] == head[key]:
            identical += 1
            continue
        moved.append(key)
        if a["ok"] != b["ok"]:
            problems.append("%s: ok %s -> %s" % (key, a["ok"], b["ok"]))
        ra, rb = a["records"], b["records"]
        if [record_key(r) for r in ra] != [record_key(r) for r in rb]:
            problems.append("%s: record lists differ" % key)
            continue
        mode = a["config"]["mode"]
        for x, y in zip(ra, rb):
            where = "%s %s %s point %d" % ((key,) + record_key(x))
            if x["passed"] != y["passed"]:
                problems.append(
                    "%s: passed %s -> %s (residual %.3e -> %.3e, tolerance "
                    "%.1e)" % (where, x["passed"], y["passed"], x["residual"],
                               y["residual"], x["tolerance"]))
            others = [f for f in x if f != "residual" and x[f] != y[f]]
            if others:
                problems.append("%s: fields %s differ" % (where, others))
            move = abs(x["residual"] - y["residual"])
            share = move / x["tolerance"] if x["tolerance"] else 0.0
            if move > worst[mode][0]:
                worst[mode] = (move, share, where)
            if move > by_name[mode][x["name"]][2]:
                by_name[mode][x["name"]][2:] = [move, share]
    for msg in problems:
        print("CHANGE " + msg)
    verdicts = "CHANGED" if problems else "identical"
    for mode in MODES:
        move, share, where = worst[mode]
        print("%s: worst residual move %.3e (%.2e x tolerance)%s"
              % (mode, move, share, "  at " + where if where else ""))
        for name, (base_n, head_n, move_n, share_n) in sorted(
                by_name[mode].items()):
            print("  %s %s: worst %.2e -> %.2e x tolerance%s"
                  % (mode, name, base_n, head_n,
                     ", moved %.3e (%.2e x tolerance)" % (move_n, share_n)
                     if move_n else ""))
        if move > MAX_MOVE:
            problems.append("%s residual move above %.0e" % (mode, MAX_MOVE))
    print("byte-identical reports: %d of %d" % (identical, len(base)))
    for key in moved:
        print("  not byte-identical: " + key)
    print("verdicts and record lists: %s" % verdicts)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="?")
    ap.add_argument("head", nargs="?")
    ap.add_argument("--emit", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit:
        emit(args.emit)
        return 0
    if not (args.base and args.head):
        ap.error("give the BASE and HEAD checkouts")
    with tempfile.TemporaryDirectory() as tmp:
        outs = [os.path.join(tmp, "base.json"), os.path.join(tmp, "head.json")]
        procs = [run_checkout(root, out, hash_seed) for root, out, hash_seed
                 in zip((args.base, args.head), outs, (1, 2))]
        if any([p.wait() != 0 for p in procs]):
            print("error: a checkout failed to produce its reports",
                  file=sys.stderr)
            return 2
        base, head = (load(path) for path in outs)
    for label, root in (("BASE", args.base), ("HEAD", args.head)):
        print("%s src/triadlab: %d lines, %d non-blank, %d code"
              % ((label,) + source_lines(root)))
    return compare(base, head)


if __name__ == "__main__":
    sys.exit(main())
