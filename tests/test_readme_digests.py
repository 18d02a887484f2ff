"""The README command digests (tools/readme_digests.py)."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "readme_digests.py"
_spec = importlib.util.spec_from_file_location("readme_digests", _PATH)
readme_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(readme_digests)

_README = """\
# stub

## Install

```sh
lagspec install --not-a-command
```

## Command line

```sh
# A comment, then a command split over two lines.
lagspec hello --name "two words" \\
        --times 2
lagspec hist --hist-out h.txt
```

```sh
lagspec outside --the-block
```
"""

# A stand-in for lagspec.cli: echoes its arguments (those of "hello"
# upper-cased when the checkout says so), writes --hist-out, and exits 3
# for "hist".
_CLI = """\
import sys
argv = sys.argv[1:]
print(" ".join(argv).upper() if {upper} and argv[0] == "hello" else " ".join(argv))
print("warning", file=sys.stderr)
if "--hist-out" in argv:
    with open(argv[argv.index("--hist-out") + 1], "w") as fh:
        fh.write("1 2\\n")
sys.exit(3 if argv[0] == "hist" else 0)
"""


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _checkouts(tmp_path, monkeypatch, upper=()):
    (tmp_path / "README.md").write_text(_README)
    monkeypatch.setattr(readme_digests, "ROOT", str(tmp_path))
    for label in ("a", "b"):
        package = tmp_path / label / "src" / "lagspec"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(_CLI.format(upper=label in upper))
    return [f"{label}={tmp_path / label}" for label in ("a", "b")]


def test_commands_of_the_command_line_block_only():
    assert readme_digests.readme_commands(_README) == [
        ["hello", "--name", "two words", "--times", "2"], ["hist", "--hist-out", "h.txt"]]


def test_project_readme_commands():
    text = (_PATH.parents[1] / "README.md").read_text(encoding="utf-8")
    commands = readme_digests.readme_commands(text)
    assert len(commands) == 12 and commands[-1][-2:] == ["--hist-out", "hist.txt"]


def test_same_outputs_print_digests_and_exit_zero(tmp_path, monkeypatch, capsys):
    assert readme_digests.main(_checkouts(tmp_path, monkeypatch)) == 0
    out = capsys.readouterr().out.splitlines()
    hello = f"stdout {_sha('hello --name two words --times 2' + chr(10))}"
    err = f"stderr {_sha('warning' + chr(10))}"
    hist = f"stdout {_sha('hist --hist-out h.txt' + chr(10))} {err} h.txt {_sha('1 2' + chr(10))}"
    assert out == [
        "lagspec hello --name 'two words' --times 2",
        f"  a: exit 0 {hello} {err}", f"  b: exit 0 {hello} {err}",
        "lagspec hist --hist-out h.txt",
        f"  a: exit 3 {hist}", f"  b: exit 3 {hist}",
        "all 2 commands gave the same results under every label",
    ]
    # Each command ran in a directory of its own, not in the checkout.
    assert not list(tmp_path.glob("**/h.txt"))


def test_differing_commands_are_named_and_exit_one(tmp_path, monkeypatch, capsys):
    assert readme_digests.main(_checkouts(tmp_path, monkeypatch, upper=("b",))) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("differs")] == [
        "differs: lagspec hello --name 'two words' --times 2"]


def test_one_label_compares_nothing(tmp_path, monkeypatch, capsys):
    assert readme_digests.main(_checkouts(tmp_path, monkeypatch)[:1]) == 0
    out = capsys.readouterr().out
    assert "differs" not in out and "same results" not in out


@pytest.mark.parametrize("argv", [["nolabel"], ["x=/nonexistent"]])
def test_rejects_bad_arguments(argv):
    with pytest.raises(SystemExit):
        readme_digests.parse_args(argv)
