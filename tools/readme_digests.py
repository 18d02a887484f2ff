#!/usr/bin/env python3
"""Digests of the README commands' outputs, per checkout.

    python3 tools/readme_digests.py parent=../lagspec-parent change=.

Every ``lagspec ...`` line of the ``sh`` block under README.md's "Command
line" heading (continuation lines joined, then split with ``shlex``) runs
as ``python -m lagspec.cli ...`` with each ``LABEL=CHECKOUT``'s ``src/`` on
``PYTHONPATH``, in a fresh temporary directory of its own. The README read
is the one next to this tool, so every checkout runs the same commands.
For each command and label one line is printed: the exit code and the
sha256 of stdout, of stderr and of every file the command wrote (relative
to its directory). With two or more labels, each command whose results
differ between them is then named on a ``differs:`` line. Exit status: 0
when every command gave the same results under every label, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme_commands(readme: str) -> list:
    """The argv lists, without the leading ``lagspec``, of the Command line block."""
    lines = readme.splitlines()
    start = lines.index("## Command line")
    fence = next(i for i in range(start, len(lines)) if lines[i].startswith("```sh"))
    block = []
    for line in lines[fence + 1:]:
        if line.startswith("```"):
            break
        if block and block[-1].endswith("\\"):
            block[-1] = block[-1][:-1] + " " + line.strip()
        else:
            block.append(line.strip())
    return [shlex.split(line)[1:] for line in block if line.startswith("lagspec ")]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(checkout: str, argv: list) -> tuple:
    """``(exit code, stdout sha256, stderr sha256, ((file, sha256), ...))`` of one run."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(checkout), "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as cwd:
        res = subprocess.run([sys.executable, "-m", "lagspec.cli", *argv], cwd=cwd,
                             capture_output=True, env=env)
        files = []
        for folder, _, names in os.walk(cwd):
            for name in names:
                path = os.path.join(folder, name)
                with open(path, "rb") as fh:
                    files.append((os.path.relpath(path, cwd), _sha256(fh.read())))
    return res.returncode, _sha256(res.stdout), _sha256(res.stderr), tuple(sorted(files))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", metavar="LABEL=CHECKOUT")
    args = parser.parse_args(argv)
    pairs = []
    for item in args.checkouts:
        label, sep, path = item.partition("=")
        if not sep or not label or not os.path.isdir(os.path.join(path, "src", "lagspec")):
            parser.error(f"{item!r} is not LABEL=CHECKOUT with a src/lagspec package")
        pairs.append((label, path))
    return pairs


def main(argv=None) -> int:
    pairs = parse_args(argv)
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        commands = readme_commands(fh.read())
    differing = []
    for argv_ in commands:
        text = shlex.join(["lagspec", *argv_])
        print(text)
        results = set()
        for label, checkout in pairs:
            code, out, err, files = run_command(checkout, argv_)
            results.add((code, out, err, files))
            written = "".join(f" {name} {digest}" for name, digest in files)
            print(f"  {label}: exit {code} stdout {out} stderr {err}{written}")
        if len(results) > 1:
            differing.append(text)
    for text in differing:
        print(f"differs: {text}")
    if len(pairs) > 1 and not differing:
        print(f"all {len(commands)} commands gave the same results under every label")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
