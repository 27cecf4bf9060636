"""Reach census: which functions of ``src/repro`` the system calls, and which only tests do.

Two legs, each in a fresh process under one ``sys.setprofile`` call collector:

* **system** — ``bench.worker`` at ``--size smoke`` on all four workloads,
  then every ``examples/*.py`` through ``runpy``;
* **tests** — tier-1 (``pytest -q`` from the repository root), with the
  collector installed by a pytest plugin (:class:`CensusPlugin`).

Every ``def`` under ``src/repro`` then falls in one class: *system* (the
system leg called it), *tests-only* (only tier-1 called it) or *unreached*.
A function's lines are its own: ``def`` to its last line, less the lines of
the functions nested in it.  The script prints counts and lines per module
and writes the same figures, plus the names of the functions outside the
system class, as JSON::

    python benchmarks/reach_census.py --out census.json
    python benchmarks/reach_census.py --legs system --out census.json

With the system leg alone, tests-only and unreached are one class, *other*.
Code that tests reach only through a subprocess counts as unreached.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
WORKLOADS = ("churn-scale", "churn-flap", "query-deep", "serve-mixed")
LEGS = ("system", "tests")


def functions():
    """``{(file, first line, name): (module, qualname, own lines)}`` for every def under src/repro.

    The first line is the code object's ``co_firstlineno``: the first
    decorator's line when there is one.
    """

    def defs(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, prefix + child.name
            elif isinstance(child, ast.ClassDef):
                yield from defs(child, f"{prefix}{child.name}.")
            else:
                yield from defs(child, prefix)

    table = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        pending = list(defs(ast.parse(path.read_text(encoding="utf-8")), ""))
        while pending:
            node, qualname = pending.pop()
            inner = list(defs(node, f"{qualname}.<locals>."))
            lines = node.end_lineno - node.lineno + 1
            lines -= sum(child.end_lineno - child.lineno + 1 for child, _name in inner)
            first = min([node.lineno] + [decorator.lineno for decorator in node.decorator_list])
            table[(str(path), first, node.name)] = (module, qualname, lines)
            pending.extend(inner)
    return table


class CensusPlugin:
    """A pytest plugin: the collector runs from session start to session finish."""

    def __init__(self):
        self.codes = set()

    def _profile(self, frame, event, arg):
        if event == "call":
            self.codes.add(frame.f_code)

    def start(self):
        # A collector started under another (a census test under the tests
        # leg) hands the profile back to it on stop.
        self._outer = sys.getprofile(), getattr(threading, "getprofile", lambda: None)()
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)

    def stop(self):
        outer, outer_threads = self._outer
        sys.setprofile(outer)
        threading.setprofile(outer_threads)

    def reached(self):
        src = str(SRC)
        return sorted(
            {
                (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
                for code in self.codes
                if os.path.realpath(code.co_filename).startswith(src)
            }
        )

    def pytest_sessionstart(self, session):
        self.start()

    def pytest_sessionfinish(self, session, exitstatus):
        self.stop()


def run_system_leg():
    from bench import worker

    for workload in WORKLOADS:
        code = worker.main(["--workload", workload, "--seed", "11", "--seconds", "0.1", "--size", "smoke"])
        if code:
            print(f"reach_census: bench.worker {workload} exited {code}", file=sys.stderr)
    for example in sorted((ROOT / "examples").glob("*.py")):
        sys.argv = [str(example)]
        try:
            runpy.run_path(str(example), run_name="__main__")
        except SystemExit:
            pass


def collect(leg, out):
    """One leg, in this process; writes the reached ``[file, line, name]`` list to *out*."""
    collector = CensusPlugin()
    if leg == "system":
        collector.start()
        try:
            run_system_leg()
        finally:
            collector.stop()
    else:
        import pytest

        os.chdir(ROOT)
        pytest.main(["-q", "-p", "no:cacheprovider"], plugins=[collector])
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(collector.reached(), handle)


def run_leg(leg, scratch):
    """Run one leg in a child process with the environment ``bench.worker`` requires."""
    out = os.path.join(scratch, f"{leg}.json")
    env = {name: value for name, value in os.environ.items() if not name.startswith("NETTRAILS_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--collect", leg, "--codes", out],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
    )
    with open(out, encoding="utf-8") as handle:
        return {tuple(entry) for entry in json.load(handle)}


def census(legs):
    table = functions()
    with tempfile.TemporaryDirectory(prefix="reach-census-") as scratch:
        reached = {leg: run_leg(leg, scratch) for leg in legs}
    classes = ("system", "tests_only", "unreached") if "tests" in legs else ("system", "other")
    modules = defaultdict(lambda: {name: [0, 0] for name in classes})
    names = {name: [] for name in classes[1:]}
    for key, (module, qualname, lines) in sorted(table.items()):
        if key in reached.get("system", ()):
            kind = "system"
        elif len(classes) == 2:
            kind = "other"
        else:
            kind = "tests_only" if key in reached["tests"] else "unreached"
        modules[module][kind][0] += 1
        modules[module][kind][1] += lines
        if kind != "system":
            names[kind].append(f"{module}:{qualname}")
    totals = {name: [sum(row[name][i] for row in modules.values()) for i in (0, 1)] for name in classes}
    return {"legs": list(legs), "classes": list(classes), "totals": totals,
            "modules": dict(sorted(modules.items())), "functions": names}


def render(document):
    classes = document["classes"]
    header = f"{'module':40s}" + "".join(f"{name:>20s}" for name in classes)
    lines = [header, f"{'':40s}" + "".join(f"{'functions / lines':>20s}" for _ in classes)]
    for module, row in list(document["modules"].items()) + [("total", document["totals"])]:
        lines.append(f"{module:40s}" + "".join(f"{row[name][0]:>10d} /{row[name][1]:>7d}" for name in classes))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="path of the census JSON to write")
    parser.add_argument("--legs", choices=("all", "system"), default="all")
    parser.add_argument("--collect", choices=LEGS, help=argparse.SUPPRESS)
    parser.add_argument("--codes", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        collect(args.collect, args.codes)
        return 0
    document = census(LEGS if args.legs == "all" else ("system",))
    print(render(document))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
