"""Every script under ``demos/`` runs, and ``README.md`` states what the code does.

The README is read as one more input: each fenced ``python`` block runs as the demos
do; the CLI table lists each command of ``cli._COMMANDS`` with its inputs and flags;
each ``json READER [FILE ...]`` block parses with that reader, one JSON document per
file name; each ``$ spdmeans ...`` line of a ``console`` block prints, through
``cli.main`` on those files, the output shown under it; and each example of the error
table raises its error.
"""

import json
import math
import pathlib
import re
import shlex
import subprocess
import sys
from itertools import takewhile

import pytest

import spdmeans
from conftest import subprocess_env
from spdmeans import cli, monotone

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")

# (info words, body) of each fenced block, by the block's language
FENCES = re.findall(r"^```(\w+)([^\n]*)\n(.*?)^```$", README, re.M | re.S)
BLOCKS = {lang: [(info.split(), body) for kind, info, body in FENCES if kind == lang]
          for lang in {kind for kind, _, _ in FENCES}}
PYTHON = [body for _, body in BLOCKS["python"]]
READERS = {**cli._PARSERS, "nu": monotone.smeasure_from_json}

# Numbers of an output example agree to this, relative or absolute: the bytes hold only
# per numpy/BLAS build, and a residual norm at the rounding floor carries no digits.
CLOSE = 1e-12


def _section(title):
    """The README text under ``## title``, up to the next ``## `` heading."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _table(text, header):
    """The cells of each row of the Markdown table in text whose header row starts so."""
    rows = takewhile(lambda line: line.startswith("|"), text[text.index(header):].split("\n")[2:])
    return [[cell.strip() for cell in row.strip().strip("|").split("|")] for row in rows]


def _documents(body):
    """The JSON documents of a block, one after another."""
    decoder, docs, i = json.JSONDecoder(), [], 0
    while body[i:].strip():
        i += len(body[i:]) - len(body[i:].lstrip())
        doc, i = decoder.raw_decode(body, i)
        docs.append(doc)
    return docs


def _files():
    """``{name: JSON document}`` of every file a ``json`` block names."""
    files = {}
    for (reader, *names), body in BLOCKS["json"]:
        if names:
            docs = _documents(body)
            assert len(names) == len(docs), f"json {reader} names {names} for {len(docs)} documents"
            files.update(zip(names, docs))
    return files


def _matches(got, want):
    """True iff got has want's structure, its integers and strings, and its numbers to CLOSE."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_matches(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(map(_matches, got, want)))
    if isinstance(want, float):
        return isinstance(got, float) and math.isclose(got, want, rel_tol=CLOSE, abs_tol=CLOSE)
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=subprocess_env())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("block", PYTHON, ids=[f"block{i}" for i in range(len(PYTHON))])
def test_readme_python_block_runs(block):
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", block],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr


def test_readme_cli_table_is_the_parser():
    rows = _table(_section("CLI"), "| command | inputs |")
    stated = [(name.strip("`"), [] if inputs == "none" else inputs.split(),
               re.findall(r"`--([\w-]+)`( \(required\))?", flags))
              for name, inputs, _, flags in rows]
    actual = [(name, [arg.upper() for arg in positionals],
               [(opt, " (required)" if cli._OPTIONS[opt].get("required") else "")
                for opt in options])
              for name, _, positionals, options in cli._COMMANDS]
    assert stated == actual


@pytest.mark.parametrize("reader", sorted(READERS))
def test_readme_json_inputs_parse_with_their_reader(reader):
    docs = [doc for (kind, *_), body in BLOCKS["json"] if kind == reader
            for doc in _documents(body)]
    assert docs, f"no json {reader} example"
    for doc in docs:
        READERS[reader](doc)


def test_readme_cli_outputs_are_what_the_cli_prints(tmp_path, capsys):
    files = _files()
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    examples = [re.split(r"\n(?=\$ )", body.strip()) for _, body in BLOCKS["console"]]
    examples = [example.split("\n", 1) for block in examples for example in block]
    assert examples
    for command, want in examples:
        argv = shlex.split(command.removeprefix("$ spdmeans "))
        argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
        assert cli.main(argv) == 0, capsys.readouterr().err
        got = capsys.readouterr().out
        assert _matches(json.loads(got), json.loads(want)), f"{command}\n{got}"


def test_readme_error_table_examples_raise_their_error():
    rows = _table(_section("Errors"), "| error | raised for |")
    errors = {name: getattr(spdmeans, name) for name in spdmeans.__all__
              if isinstance(getattr(spdmeans, name), type)
              and issubclass(getattr(spdmeans, name), spdmeans.SpdMeansError)}
    assert sorted(row[0].strip("`") for row in rows) == sorted(errors)
    scope = {"spdmeans": spdmeans, **{name: getattr(spdmeans, name) for name in spdmeans.__all__}}
    exec(re.findall(r"^```python\n(.*?)^```$", _section("Library tour"), re.M | re.S)[0], scope)
    for name, _, examples in rows:
        for example in re.findall(r"`([^`]+)`", examples):
            with pytest.raises(errors[name.strip("`")]) as info:
                eval(example, scope)
            assert type(info.value) is errors[name.strip("`")], example
