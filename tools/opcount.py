"""Count work, not seconds: bytecode instructions and C calls per function.

    python3 tools/opcount.py                              # every workload
    python3 tools/opcount.py --workload analyze-high-mult --specs 20
    PYTHONPATH=/tmp/other/src python3 tools/opcount.py    # another tree's program

Each workload of ``perfbench/workloads.py`` gives a fixed sample: the
first ``--specs`` curve-specs of its analyze pool, each through
``cli.main(["analyze", spec])``, and one ``verify`` of its corpus bounds at
``--jobs 1``.  While a sample runs, ``sys.settrace`` with ``f_trace_opcodes``
counts the bytecode instructions executed in the frames of the program's
package, and ``sys.setprofile`` counts the C functions those frames call.
Comprehensions, generator expressions and lambdas count towards the
function they are written in; nested ``def`` helpers count on their own.
The program is imported from ``PYTHONPATH`` when it is set and from this
checkout's ``src`` otherwise; the sample always comes from this checkout's
``perfbench``.  The script re-runs itself under a fixed ``PYTHONHASHSEED``,
so the counts repeat exactly from process to process, and two trees can be
compared line by line.  Standard library only; the elapsed time goes to
stderr, the counts to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the pools and bounds; it imports nothing of the program)

HASH_SEED = "0"
# code objects that belong to the function around them
_ANONYMOUS = re.compile(r"(?:^|\.<locals>\.)<(?:listcomp|genexpr|dictcomp|setcomp|lambda)>$")


def owner(code) -> str:
    """``module.qualname`` of the function a code object is counted under."""
    name = code.co_qualname
    while (shorter := _ANONYMOUS.sub("", name)) != name:
        name = shorter
    return f"{Path(code.co_filename).stem}.{name or '<module>'}"


def count(run, package: str) -> tuple[Counter, Counter]:
    """Instructions and C calls per function of ``package`` while ``run()``
    runs; frames of other code are not counted, nor what they call."""
    instructions, c_calls = Counter(), Counter()
    keys: dict = {}  # code object -> owner, or None outside the package

    def key(code):
        if code not in keys:
            keys[code] = owner(code) if code.co_filename.startswith(package) else None
        return keys[code]

    def on_call(frame, event, arg):
        name = key(frame.f_code)
        if name is None:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True

        def on_opcode(frame, event, arg):
            if event == "opcode":
                instructions[name] += 1
            return on_opcode
        return on_opcode

    def on_profile(frame, event, arg):
        if event == "c_call" and (name := key(frame.f_code)) is not None:
            c_calls[name] += 1

    sys.settrace(on_call)
    sys.setprofile(on_profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        sys.settrace(None)
    return instructions, c_calls


def samples(names: list[str], specs: int):
    """(workload, phase, argv list) for each sample, in a fixed order."""
    for name in names:
        wl = workloads.WORKLOADS[name]
        pool = workloads.pool(wl.pool)[:specs]
        yield name, f"analyze (first {len(pool)} specs of pool {wl.pool})", [
            ["analyze", workloads.spec_text(spec)] for spec in pool]
        b, m, d, i = wl.verify_bounds
        yield name, f"verify {wl.verify_bounds} at --jobs 1", [
            ["verify", "--max-branches", str(b), "--max-mult", str(m),
             "--max-delta", str(d), "--max-int", str(i), "--jobs", "1"]]


def table(instructions: Counter, c_calls: Counter) -> list[str]:
    names = sorted(set(instructions) | set(c_calls))
    width = max([len(n) for n in names] + [len("function")])
    lines = [f"  {'function':<{width}}  {'instructions':>12}  {'C calls':>10}"]
    lines += [f"  {n:<{width}}  {instructions[n]:>12}  {c_calls[n]:>10}" for n in names]
    lines.append(f"  {'total':<{width}}  {sum(instructions.values()):>12}  "
                 f"{sum(c_calls.values()):>10}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS),
                        help="a workload of perfbench/workloads.py (repeatable; default all)")
    parser.add_argument("--specs", type=int, default=50,
                        help="analyze specs taken from the start of each pool (default 50)")
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        env.pop("MILNOR_LAB_JOBS", None)
        return subprocess.run([sys.executable, __file__, *argv], env=env).returncode

    if not os.environ.get("PYTHONPATH"):
        sys.path.insert(0, str(ROOT / "src"))
    import milnor_lab
    import milnor_lab.cli as cli

    package = os.path.dirname(milnor_lab.__file__) + os.sep
    print(f"program: {package}")
    start = time.perf_counter()
    for name, phase, argvs in samples(args.workload or list(workloads.WORKLOADS), args.specs):
        def run():
            for argv in argvs:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    raise SystemExit(f"{name}: {' '.join(argv)} exited {code}")
        print(f"{name}: {phase}")
        print("\n".join(table(*count(run, package))))
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
