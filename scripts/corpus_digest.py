#!/usr/bin/env python3
"""Digest the CLI's answers on every corpus program.

For each program under corpus/, runs in-process, with stdout and stderr
captured:

* ``check --format json``, and ``check --warn-dropped`` as text (the
  dropped-binding warnings, in the order the checker finds them);
* ``run --format json --seed N`` for N in 0..5;
* ``explore --depth 8``, as JSON and as text (only the text prints the
  violation witness).

Negative programs are run and explored with ``--unchecked``.  The exit
codes and both output streams of all ten commands go into one sha256,
printed as ``sha256  program``, one line per program.  The script re-execs
itself under PYTHONHASHSEED=0, so set iteration order, and with it every
byte of output, is the same on each run.

A change that must not alter behaviour keeps the output equal to
corpus/DIGESTS:

    PYTHONPATH=src python3 scripts/corpus_digest.py | diff corpus/DIGESTS -
"""

import contextlib
import hashlib
import io
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = range(6)
DEPTH = 8


def commands(rel: str, negative: bool) -> list[list[str]]:
    unchecked = ["--unchecked"] if negative else []
    cmds = [["check", rel, "--format", "json"], ["check", rel, "--warn-dropped"]]
    for seed in SEEDS:
        cmds.append(["run", rel, "--format", "json", "--seed", str(seed)] + unchecked)
    for fmt in ("json", "text"):
        cmds.append(["explore", rel, "--depth", str(DEPTH), "--format", fmt] + unchecked)
    return cmds


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    from actorcap.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code
    return code, out.getvalue(), err.getvalue()


def digest(rel: str, negative: bool) -> str:
    h = hashlib.sha256()
    for argv in commands(rel, negative):
        code, out, err = run_cli(argv)
        for part in (" ".join(argv), str(code), out, err):
            h.update(part.encode())
            h.update(b"\0")
    return h.hexdigest()


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    os.chdir(ROOT)  # program paths, and so the hashed argv, are repo-relative
    for kind in ("positive", "negative"):
        for path in sorted((ROOT / "corpus" / kind).glob("*.acap")):
            rel = path.relative_to(ROOT).as_posix()
            print(f"{digest(rel, kind == 'negative')}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
