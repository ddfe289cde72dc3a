"""Compare the outputs of two scenopt source trees, file by file.

    python tests/compare_outputs.py OLD_TREE NEW_TREE [--work DIR]

Each tree is a checkout that holds src/scenopt (for the parent commit, one
made with `git archive` or `git clone`).  For each tree in turn, every job
below runs in a fresh interpreter with that tree's src/ first on the path:

- perfbench's invocations of every workload at its reference and held-out
  seeds (perfbench/workloads.py);
- the argvs of GOLDEN_RUNS and GOLDEN_TRACES (tests/test_cli.py);
- TestKernelAgreement's LP corpus (tests/test_lp.py), solved refined and
  unrefined, with its two outcome digests;
- a seeded corpus of 330 cascade and greedy traces: analytic d=1 and
  resource d=1, 2 and 10;
- a seeded corpus of 506 bound queries: 250 invert_epsilon and 250
  max_removable queries over the three formulas, m from 30 to 60,000 (the
  recurrence and both log-space tail paths), half of the confidence levels
  set to the bound at a bisection midpoint or at a removal count, so that
  decisions meet exact ties, and the six queries that hit the 2**22-term
  cap.  Each of the 500 records the public bound's value at its query's
  eps beside the answer, so the tails are compared, not just the answers.

The inputs (argvs and corpus builders) are read from the tree this script
lives in, so both sides run the same inputs.  Every CSV and JSON output is
parsed.  For each file the report says whether its discrete fields (ints,
strings, booleans, nulls, the shape of the data, a CLI's exit code) are
identical, with the first difference, and gives the number of floats and
their largest relative drift |a - b| / max(|a|, |b|).  The script exits 1
on a discrete difference, a file missing on one side, or a drift above
1e-12 (above 0 for the bound queries, whose answers must agree bit for
bit), and prints the new sha256 of every file a digest pins, beside the
pinned value.  pytest does not collect it.
"""

import argparse
import ast
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_DRIFT = 1e-12

# Child program: the seeded trace corpus.  argv: out_file.
TRACES = r'''
import json, sys
import numpy as np
from scenopt.engine import CascadeError, greedy_removal, run_cascade
from scenopt.experiments import RandomSource, gen_analytic, gen_resource

# (name, maker, ell, r, seeds): 330 traces, a cascade and a greedy run each
FAMILIES = [
    ("analytic d=1 m=50", lambda g: gen_analytic(50, g), 5, 5, range(60)),
    ("resource d=1 m=100", lambda g: gen_resource(1, 2, 100, g), 10, 10,
     range(40)),
    ("resource d=2 m=200", lambda g: gen_resource(2, 2, 200, g), 10, 20,
     range(40)),
    ("resource d=10 m=300", lambda g: gen_resource(10, 2, 300, g), 3, 8,
     range(25)),
]


def outcome(run):
    try:
        return run().to_dict()
    except CascadeError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


out = {}
for name, make, ell, r, seeds in FAMILIES:
    for seed in seeds:
        prog = make(RandomSource(1000 + seed).generator())
        out[f"{name} seed={seed} cascade"] = outcome(
            lambda: run_cascade(prog, ell))
        out[f"{name} seed={seed} greedy"] = outcome(
            lambda: greedy_removal(prog, r))
json.dump(out, open(sys.argv[1], "w"), indent=1)
'''

# Child program: TestKernelAgreement's corpus, built by the functions of
# tests/test_lp.py read from its source.  argv: test_lp.py, out_file.
KERNEL = r'''
import ast, hashlib, json, sys
import numpy as np
from scenopt.experiments import RandomSource, gen_resource
from scenopt.lp import LinearProgram, solve

body = ast.parse(open(sys.argv[1]).read()).body
agreement = [n for n in body if getattr(n, "name", "") == "TestKernelAgreement"]
wanted = {"random_corpus_lp", "resource_stage", "solve_outcomes",
          "outcome_digest", "corpus", "resource_lps"}
defs = [node for node in body + agreement[0].body
        if isinstance(node, ast.FunctionDef) and node.name in wanted]
for node in defs:
    node.decorator_list = []
scope = {"np": np, "hashlib": hashlib, "LinearProgram": LinearProgram,
         "solve": solve, "RandomSource": RandomSource,
         "gen_resource": gen_resource}
exec(compile(ast.Module(body=defs, type_ignores=[]), "test_lp", "exec"), scope)
lps = scope["corpus"](None)[0] + scope["resource_lps"](None)[0]
out = {}
for refine in (True, False):
    got = scope["solve_outcomes"](lps, refine=refine)
    key = "refined" if refine else "unrefined"
    out[key] = [[s.value, None if x is None else x.tolist()] for s, x in got]
    out[key + " digest"] = scope["outcome_digest"](got)
json.dump(out, open(sys.argv[2], "w"), indent=1)
'''


# Child program: the seeded bound-query corpus.  argv: seed, out_file.
BOUNDS = r'''
import json, math, random, sys
from scenopt.bounds import (bound_cascade, bound_classical, bound_compression,
                            invert_epsilon, max_removable)

FORMULAS = ("cascade", "classical", "compression")


def bound(formula, m, d, r, eps):
    if formula == "cascade":
        return bound_cascade(m, d, r, eps).value
    if formula == "classical":
        return bound_classical(m, d, r, eps).value
    return bound_compression(m, r + d, eps).value


def draw_beta(rng, tie):
    """tie() half the time, when it lies in (0, 1); else log-uniform on
    [1e-14, 0.9]."""
    if rng.random() < 0.5:
        beta = tie()
        if 0.0 < beta < 1.0:
            return beta
    return math.exp(rng.uniform(math.log(1e-14), math.log(0.9)))


def outcome(call):
    try:
        return call()
    except ValueError as exc:
        return {"error": str(exc)}


rng = random.Random(int(sys.argv[1]))
out = []
for n in range(500):
    formula = FORMULAS[n % 3]
    m = round(math.exp(rng.uniform(math.log(30), math.log(60_000))))
    d = rng.randint(1, 10)
    if rng.random() < 0.5:
        r = rng.randint(0, min(50, m - d - 1))
    else:
        r = int(rng.uniform(0.0, 0.2) * (m - d - 1))
    if n % 2 == 0:
        # a tie: the bound at a dyadic eps, which bisection steps can meet
        j = rng.randint(1, 30)
        eps = rng.randrange(1, 2**j, 2) / 2**j
        beta = draw_beta(rng, lambda: bound(formula, m, d, r, eps))
        query = ["invert_epsilon", m, d, r, beta, formula]
        got = outcome(lambda: list(vars(invert_epsilon(*query[1:])).values()))
    else:
        eps = rng.uniform(0.0, 0.5) if rng.random() < 0.5 else math.exp(
            rng.uniform(math.log(1e-4), 0.0))
        beta = draw_beta(rng, lambda: bound(formula, m, d, r, eps))
        query = ["max_removable", m, d, eps, beta, formula, rng.random() < 0.5]
        got = outcome(lambda: max_removable(*query[1:]))
    out.append([query, got, bound(formula, m, d, r, eps)])
for formula in FORMULAS:
    for query in (["invert_epsilon", 10**15, 1, 5 * 10**14, 1e-6, formula],
                  ["max_removable", 10**15, 1, 0.5, 1e-6, formula]):
        call = {"invert_epsilon": invert_epsilon,
                "max_removable": max_removable}[query[0]]
        got = outcome(lambda: call(*query[1:]))
        out.append([query, got if isinstance(got, dict) else "no error"])
json.dump(out, open(sys.argv[2], "w"), indent=1)
'''
BOUNDS_SEED = 5


def _literal(path, name):
    """The literal value assigned to a module-level name in a source file."""
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == name):
            return ast.literal_eval(node.value)
    raise KeyError(f"{name} not found in {path}")


def jobs():
    """(name, kind, payload, pinned digests by file name) for every job."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import REFERENCE_DIGESTS, WORKLOADS

    found = []
    for w in WORKLOADS.values():
        for which, seed in (("reference", w.reference_seed),
                            ("held-out", w.held_out_seed)):
            if seed is None:
                continue
            pinned = REFERENCE_DIGESTS.get(w.name, {}) if which == "reference" \
                else {}
            argvs = w.argvs(seed, "{out}")
            for k, argv in enumerate(argvs):
                name = f"perfbench {w.name} {which} seed={seed}"
                if len(argvs) > 1:
                    name += f" #{k}"
                found.append((name, "cli", argv, pinned))
    for table, command in (("GOLDEN_RUNS", ["experiment"]),
                           ("GOLDEN_TRACES", [])):
        for argv, pinned in _literal(HERE / "test_cli.py", table).items():
            found.append((f"{table} {argv[0]}", "cli",
                          [*command, *argv, "--out", "{out}"], pinned))
    found.append(("TestKernelAgreement corpus", "kernel", None, {}))
    found.append(("trace corpus", "traces", None, {}))
    found.append(("bound-query corpus", "bounds", None, {}))
    return found


def run_job(tree, kind, payload, out_dir):
    """Run one job in a fresh interpreter on tree; its outputs land in
    out_dir.  Returns the files to compare, by name."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    out_dir.mkdir(parents=True)
    if kind == "cli":
        argv = [a.replace("{out}", str(out_dir)) for a in payload]
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from scenopt.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv], env=env, capture_output=True, text=True, timeout=3600)
        stdout = done.stdout.replace(str(out_dir), "<out>")
        (out_dir / "exit_status.json").write_text(json.dumps(
            {"code": done.returncode, "stderr": done.stderr}))
        if stdout.strip():
            (out_dir / "stdout.json").write_text(stdout)
    else:
        program = {"kernel": KERNEL, "traces": TRACES, "bounds": BOUNDS}[kind]
        args = {"kernel": [str(HERE / "test_lp.py")], "traces": [],
                "bounds": [str(BOUNDS_SEED)]}[kind]
        subprocess.run([sys.executable, "-c", program, *args,
                        str(out_dir / f"{kind}.json")],
                       env=env, check=True, timeout=3600)
    return {p.name: p for p in sorted(out_dir.iterdir())}


def _cell(text):
    """A CSV cell as a float when it is written as one, else as text."""
    if any(c in text for c in ".eEn") and text not in ("", "True", "False"):
        try:
            return float(text)
        except ValueError:
            pass
    return text


def _load(path):
    if path.suffix == ".csv":
        with open(path, newline="") as f:
            return [[_cell(c) for c in row] for row in csv.reader(f)]
    return json.loads(path.read_text())


def compare(a, b, where="$"):
    """(first discrete difference or None, floats compared, largest
    relative drift) between two parsed outputs."""
    if isinstance(a, float) and isinstance(b, float):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return None, 1, 0.0
        if math.isinf(a) or math.isinf(b):
            return f"{where}: {a!r} != {b!r}", 1, 0.0
        return None, 1, abs(a - b) / max(abs(a), abs(b))
    if type(a) is not type(b):
        return f"{where}: {a!r} != {b!r}", 0, 0.0
    if isinstance(a, dict):
        if list(a) != list(b):
            return f"{where}: keys {list(a)} != {list(b)}", 0, 0.0
        pairs = [(a[k], b[k], f"{where}.{k}") for k in a]
    elif isinstance(a, list):
        if len(a) != len(b):
            return f"{where}: length {len(a)} != {len(b)}", 0, 0.0
        pairs = [(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    else:
        return (None if a == b else f"{where}: {a!r} != {b!r}"), 0, 0.0
    first, count, drift = None, 0, 0.0
    for x, y, w in pairs:
        diff, n, dr = compare(x, y, w)
        first = first or diff
        count += n
        drift = max(drift, dr)
    return first, count, drift


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="source tree of the parent")
    parser.add_argument("new", help="source tree of the change")
    parser.add_argument("--work", help="directory for the outputs "
                        "(default: a fresh temporary directory)")
    args = parser.parse_args(argv)
    work = Path(args.work or tempfile.mkdtemp(prefix="compare_outputs_"))
    failed = False
    pins = []
    for i, (name, kind, payload, pinned) in enumerate(jobs()):
        old = run_job(args.old, kind, payload, work / "old" / str(i))
        new = run_job(args.new, kind, payload, work / "new" / str(i))
        for fname in sorted(set(old) | set(new)):
            label = f"[{name}] {fname}"
            if fname not in old or fname not in new:
                print(f"{label}: only in {'new' if fname in new else 'old'}")
                failed = True
                continue
            diff, count, drift = compare(_load(old[fname]), _load(new[fname]))
            bad = diff is not None or drift > (0.0 if kind == "bounds"
                                               else MAX_DRIFT)
            failed |= bad
            print(f"{label}: discrete {'identical' if diff is None else 'DIFFER'}"
                  f"; {count} floats, max relative drift {drift:.3g}"
                  + (f"; first difference {diff}" if diff else "")
                  + ("  <-- FAIL" if bad else ""))
            if fname in pinned:
                digest = hashlib.sha256(new[fname].read_bytes()).hexdigest()
                pins.append(f"{name} {fname}: {digest} "
                            + ("(as pinned)" if digest == pinned[fname]
                               else f"(pinned {pinned[fname]})"))
            if fname == "kernel.json":
                got = _load(new[fname])
                pins += [f"{name} {key}: {got[key]}"
                         for key in ("refined digest", "unrefined digest")]
    print("\nsha256 of the pinned outputs of the new tree:")
    for line in pins:
        print("  " + line)
    print(f"\n{'FAIL' if failed else 'OK'}: outputs under {work}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
