"""Usage census: the ``repro`` code that no program runs.

Every program the repository ships -- the examples, each CLI command (``train``
once per model and per model-specific flag), every declared experiment at
``--smoke``, and one round of each perf workload with its serving sweep -- runs
in its own interpreter under a ``sys.setprofile`` recorder that is installed
before ``repro`` is imported. The census is two sorted lists, keyed by
``module:qualname`` (no line numbers, so unrelated edits do not churn it):

* ``functions`` -- defs under ``src/repro`` that no program calls;
* ``parameters`` -- ``module:qualname(param)`` for each defaulted parameter of
  a called def that no program sets to anything but its default.

Constructor hyperparameters of the models in ``repro.algorithms`` are kept by
one rule (:func:`is_model_hyperparameter`), not one entry each. Everything
else the census finds is either deleted or kept in ``tests/census.json`` with
one reason matching :data:`REASON_PATTERN`.

    python tests/census.py [--out FILE]   # run every program, write the census
    python tests/census.py --check        # ... and hold it to tests/census.json

``--check`` fails on a program that exits non-zero (listed first: its census
is incomplete; the line names each check the program reported failed, and
each allow-listed entry no other program reaches), on an entry the
allow-list does not name, and on an allow-listed entry that a program now
calls or sets (a stale entry).
"""

from __future__ import annotations

import argparse
import ast
import dis
import gc
import json
import os
import re
import subprocess
import sys
import tempfile
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
ALLOW_LIST = os.path.join(HERE, "census.json")

#: The one reason an allow-listed entry may carry (``planned`` names the
#: ROADMAP item that will call it; ``fixture`` marks a parameter that only
#: test fixtures set, and some ``tests/*.py`` call must pass it by keyword).
REASON_PATTERN = re.compile(r"(safety|protocol|fixture|planned: item \d+)")

_GENERATOR_FLAGS = 0x20 | 0x80 | 0x100 | 0x200  # generator, coroutine, iterable / async gen
_DATASET = "taobao-small-sim"
_MODELS = (
    "deepwalk", "node2vec", "line", "netmf", "graphsage", "sign", "gatne",
    "mixture-gnn", "hierarchical-gnn", "auto",
)
_PERF_WORKLOADS = ("build_store", "sample_store", "train_gnn", "serve_mixed", "store_rw")


# --------------------------------------------------------------------------- #
# The static side: every def and defaulted parameter under src/repro.
# --------------------------------------------------------------------------- #
def module_name(path: str) -> str:
    rel = os.path.relpath(path, SRC)[: -len(".py")].split(os.sep)
    if rel[-1] == "__init__":
        rel.pop()
    return ".".join(rel)


def _param_defaults(args: ast.arguments) -> "list[str]":
    positional = args.posonlyargs + args.args
    named = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    named += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return named


def defs_in(path: str) -> "dict[str, list[str]]":
    """``qualname -> defaulted parameter names`` for every def in one file."""
    found: "dict[str, list[str]]" = {}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                found.setdefault(qualname, [])
                found[qualname] += [p for p in _param_defaults(child.args) if p not in found[qualname]]
                walk(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    with open(path, encoding="utf-8") as fh:
        walk(ast.parse(fh.read(), path), "")
    return found


def all_defs() -> "dict[str, list[str]]":
    """``module:qualname -> defaulted parameters`` over the whole package."""
    defs = {}
    for dirpath, _, files in os.walk(PACKAGE):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                module = module_name(path)
                for qualname, params in defs_in(path).items():
                    defs[f"{module}:{qualname}"] = params
    return defs


def is_model_hyperparameter(key: str) -> bool:
    """The one rule: a model's hyperparameters stay without an entry — at its
    constructor, and in the ``algorithms/base.py`` training helpers a
    constructor value is passed on to (``train_skipgram(batch_size=...)``)."""
    module, qualname = key.split(":")
    return module == "repro.algorithms.base" or (
        module.startswith("repro.algorithms.") and qualname.endswith(".__init__")
    )


# --------------------------------------------------------------------------- #
# The recorder (runs inside each program's interpreter).
# --------------------------------------------------------------------------- #
def _same(value, default) -> bool:
    if value is default:
        return True
    if type(value) is not type(default):
        return False
    try:
        return bool(value == default)
    except Exception:  # arrays and other values without a truth value
        return False


def _resolve(namespace: dict, qualname: str, code):
    """The function object running ``code``: by qualname, else by a heap search."""
    head, *rest = qualname.split(".")
    obj = namespace.get(head)
    for part in rest:
        obj = vars(obj).get(part) if isinstance(obj, type) else None
    # A plain function, or what a property / classmethod / staticmethod wraps.
    for fn in (obj, *(getattr(obj, a, None) for a in ("fget", "fset", "__func__"))):
        if getattr(fn, "__code__", None) is code:
            return fn
    # Closures and decorated defs: the (first) function object holding the code.
    return next((f for f in gc.get_referrers(code) if isinstance(f, types.FunctionType)), None)


class Recorder:
    """A ``sys.setprofile`` hook: which repro defs run, which defaults move."""

    def __init__(self) -> None:
        self.prefix = PACKAGE + os.sep
        self.codes: dict = {}  # id(code) -> (code, key, {param: default}, first offset)
        self.called: "set[str]" = set()
        self.set_params: "set[str]" = set()

    def _first_sight(self, frame, code):
        path = code.co_filename
        if not path.startswith(self.prefix) or code.co_name.startswith("<"):
            entry = (code, None, None, None)
        else:
            key = f"{module_name(path)}:{code.co_qualname}"
            fn = _resolve(frame.f_globals, code.co_qualname, code)
            defaults = {}
            if fn is not None:
                names = code.co_varnames[: code.co_argcount]
                if fn.__defaults__:
                    defaults.update(zip(names[len(names) - len(fn.__defaults__):], fn.__defaults__))
                defaults.update(fn.__kwdefaults__ or {})
            first = None
            if code.co_flags & _GENERATOR_FLAGS:
                first = next(i.offset for i in dis.get_instructions(code) if i.opname == "RESUME")
            entry = (code, key, defaults, first)
        self.codes[id(code)] = entry
        return entry

    def hook(self, frame, event, arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        entry = self.codes.get(id(code)) or self._first_sight(frame, code)
        key = entry[1]
        if key is None:
            return
        self.called.add(key)
        defaults = entry[2]
        if not defaults or (entry[3] is not None and frame.f_lasti != entry[3]):
            return
        values = frame.f_locals
        for param in [p for p in defaults if not _same(values[p], defaults[p])]:
            self.set_params.add(f"{key}({param})")
            del defaults[param]

    def install(self) -> None:
        """Arm the hook, and keep it armed through code that profiles itself."""
        native = self.native = sys.setprofile

        def setprofile(fn) -> None:
            if fn is None:
                native(self.hook)
            else:
                # A profile hook runs unprofiled: installing it is its call.
                code = getattr(fn, "__code__", None)
                if code is not None and code.co_filename.startswith(self.prefix):
                    self.called.add(f"{module_name(code.co_filename)}:{code.co_qualname}")

                def chained(frame, event, arg):
                    self.hook(frame, event, arg)
                    fn(frame, event, arg)

                native(chained)

        sys.setprofile = setprofile
        native(self.hook)


def _run_program(kind: str, argv: "list[str]") -> None:
    import runpy

    if kind == "script":
        sys.argv = list(argv)
        runpy.run_path(argv[0], run_name="__main__")
    elif kind == "cli":
        sys.argv = ["repro"] + list(argv)
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    elif kind == "perf":
        sys.path.insert(0, os.path.join(ROOT, "benchmarks", "perf"))
        from workloads import WORKLOADS

        workload = WORKLOADS[argv[0]]()
        workload.prepare(int(argv[1]))
        ctx = workload.build(None)
        workload.check(ctx, workload.run(ctx))
        if hasattr(workload, "exact_metrics"):
            workload.exact_metrics(sweep=True)
    else:
        raise SystemExit(f"unknown program kind {kind!r}")


def child_main(out: str, kind: str, argv: "list[str]") -> int:
    """Run one program under the recorder and write what it used to ``out``."""
    sys.path.insert(0, SRC)
    recorder = Recorder()
    recorder.install()
    status = 0
    try:
        _run_program(kind, argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.setprofile = recorder.native
        sys.setprofile(None)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"called": sorted(recorder.called), "set": sorted(recorder.set_params)}, fh)
    return status


# --------------------------------------------------------------------------- #
# The programs, and the census over them.
# --------------------------------------------------------------------------- #
def programs(tmp: str) -> "list[tuple[str, list[str]]]":
    """Every program, in run order (later CLI runs read earlier ones' files)."""
    data = os.path.join(tmp, "graph.npz")
    emb = os.path.join(tmp, "emb.npz")
    runs: "list[tuple[str, list[str]]]" = []
    examples = os.path.join(ROOT, "examples")
    for name in sorted(os.listdir(examples)):
        if name.endswith(".py"):
            runs.append(("script", [os.path.join(examples, name)]))
    runs.append(("cli", ["dataset", _DATASET, data, "--scale", "0.05", "--seed", "1"]))
    runs.append(("cli", ["info", data]))
    train = ["--dim", "16", "--epochs", "1"]
    for model in _MODELS:
        runs.append(("cli", ["train", model, data, emb] + train))
    for model in ("deepwalk", "node2vec", "line"):
        runs.append(("cli", ["train", model, data, emb, "--backend", "kv",
                             "--kv-workers", "2"] + train))
    runs.append(("cli", ["train", "graphsage", data, emb, "--minibatch-blocks",
                         "--holdout", "0.2", "--seed", "3"] + train))
    runs.append(("cli", ["evaluate", emb, data, "--holdout", "0.2", "--seed", "3"]))
    runs.append(("cli", ["report", "--scale", "0.1", "--steps", "2", "--out",
                         os.path.join(tmp, "report")]))
    runs.append(("cli", ["report", "--scale", "0.1", "--steps", "2", "--json"]))
    runs.append(("cli", ["bench"]))
    runs.append(("cli", ["bench-compare", "--smoke", "--out-dir", os.path.join(tmp, "gate")]))
    runs.append(("cli", ["bench-compare", "--smoke", "--json", "--only", "fig7"]))
    runs.append(("cli", ["bench", "--smoke", "--out-dir", os.path.join(tmp, "bench")]
                 + _experiment_ids()))
    runs.append(("cli", ["bench", "--smoke", "--json", "--out-dir", os.path.join(tmp, "json"),
                         "fig7"]))
    for workload in _PERF_WORKLOADS:
        runs.append(("perf", [workload, "1"]))
    return runs


def _experiment_ids() -> "list[str]":
    listing = subprocess.run(
        [sys.executable, "-m", "repro", "bench"], env=_child_env(), cwd=ROOT,
        check=True, capture_output=True, text=True,
    ).stdout
    return [line.split()[0] for line in listing.splitlines() if line.strip()]


def _child_env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


#: How much of a failed program's stdout and stderr (characters, the end of
#: each) the census searches for the check that failed.
OUTPUT_TAIL = 8000


def run_child(kind: str, argv: "list[str]", out: str, cwd: str) -> "tuple[dict, str | None]":
    """Run one program under the recorder in its own interpreter.

    Returns what it used and, when it exited non-zero, its problem line,
    which names every ``check failed`` line in the tail of the program's
    output (``repro bench`` prints them to stderr, ``bench-compare`` to
    stdout).
    """
    proc = subprocess.run(
        [sys.executable, __file__, "--child", out, kind] + argv, env=_child_env(),
        cwd=cwd, capture_output=True, text=True,
    )
    if not os.path.exists(out):
        raise SystemExit(f"census: {kind} {argv} wrote nothing:\n{proc.stderr[-2000:]}")
    problem = None
    if proc.returncode != 0:
        tail = proc.stdout[-OUTPUT_TAIL:] + "\n" + proc.stderr[-OUTPUT_TAIL:]
        print(f"census: {kind} {argv} exited {proc.returncode}:\n{tail[-4000:]}",
              file=sys.stderr)
        problem = f"program exited {proc.returncode}: {kind} {' '.join(argv)}"
        checks = dict.fromkeys(
            line.strip() for line in tail.splitlines() if "check failed" in line
        )
        if checks:
            problem += " -- " + "; ".join(checks)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), problem


def take_census(verbose: bool = True) -> "tuple[dict, list[tuple[str | None, set[str]]]]":
    """Run every program under the recorder: the census, and per program its
    problem line (``None`` when it exited 0; its census is then complete)
    with the defs it called and the parameters it set."""
    called: "set[str]" = set()
    runs: "list[tuple[str | None, set[str]]]" = []
    set_params: "set[str]" = set()
    with tempfile.TemporaryDirectory() as tmp:
        for i, (kind, argv) in enumerate(programs(tmp)):
            used, problem = run_child(kind, argv, os.path.join(tmp, f"used{i}.json"), tmp)
            if verbose:
                print("  " + " ".join([kind] + [os.path.basename(a) for a in argv[:3]]),
                      file=sys.stderr)
            runs.append((problem, {*used["called"], *used["set"]}))
            called.update(used["called"])
            set_params.update(used["set"])
    defs = all_defs()
    functions = sorted(key for key in defs if key not in called)
    parameters = sorted(
        f"{key}({param})"
        for key, params in defs.items() if key in called
        for param in params
        if f"{key}({param})" not in set_params and not is_model_hyperparameter(key)
    )
    return {"functions": functions, "parameters": parameters}, runs


def check(
    census: dict, allowed: dict, runs: "list[tuple[str | None, set[str]]]" = ()
) -> "list[str]":
    """Problems: each program in ``runs`` (from :func:`take_census`) that
    exited non-zero, then census entries not allow-listed and allow-listed
    entries a program uses.

    An allow-listed entry that only failed programs use is what the failure
    ran into, not a finding of its own: the first such program's line names
    it, and it is not reported stale.
    """
    kinds = ("functions", "parameters")
    stale = [e for kind in kinds for e in sorted(set(allowed[kind]) - set(census[kind]))]
    reached = set().union(*(used for problem, used in runs if problem is None))
    explained: "set[str]" = set()
    problems = []
    for problem, used in runs:
        if problem is None:
            continue
        mine = [e for e in stale if e in used and e not in reached and e not in explained]
        explained.update(mine)
        if mine:
            problem += "; it alone reaches allow-listed " + ", ".join(mine)
        problems.append(problem)
    for kind in kinds:
        found, listed = set(census[kind]), set(allowed[kind])
        problems += [f"not allow-listed ({kind}): {e}" for e in sorted(found - listed)]
        problems += [
            f"stale, a program now uses it ({kind}): {e}"
            for e in sorted(listed - found) if e not in explained
        ]
    return problems


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return child_main(argv[1], argv[2], argv[3:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None, help="write the census here (default: stdout)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the census equals the allow-list's entries")
    args = parser.parse_args(argv)
    census, runs = take_census()
    text = json.dumps(census, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif not args.check:
        sys.stdout.write(text)
    if args.check:
        with open(ALLOW_LIST, encoding="utf-8") as fh:
            problems = check(census, json.load(fh), runs)
        for problem in problems:
            print(problem)
        print(f"census: {len(census['functions'])} functions, "
              f"{len(census['parameters'])} parameters; {len(problems)} problems")
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
