import argparse
import ast
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src" / "whitney" / "corpus"


def test_gen_corpus_reproduces_bundled_corpus(tmp_path):
    (tmp_path / "tools").mkdir()
    script = shutil.copy(ROOT / "tools" / "gen_corpus.py", tmp_path / "tools")
    out = tmp_path / "src" / "whitney" / "corpus"
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, script], cwd=tmp_path, env=env, check=True,
                   capture_output=True)
    bundled = sorted(p.name for p in CORPUS.glob("*.json"))
    assert sorted(p.name for p in out.iterdir()) == bundled
    for name in bundled:
        assert (out / name).read_bytes() == (CORPUS / name).read_bytes(), name


def test_modules_read_each_other_only_through_public_names():
    # a private name is read in its own module alone: imported by no other, and reached
    # through self or cls only
    found = []
    for path in sorted((ROOT / "src" / "whitney").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [(path.name, node.lineno, f"import {alias.name}") for alias in node.names
                          if alias.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and not (node.attr.startswith("__") and node.attr.endswith("__"))
                  and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
                found.append((path.name, node.lineno, ast.unparse(node)))
    assert found == []


def test_simplices_are_named_in_simplicial_alone():
    # a comma join is a simplex key: simplicial.simplex_key, for function files and barycenters
    found = []
    for path in sorted((ROOT / "src" / "whitney").glob("*.py")):
        if path.name == "simplicial.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join" and isinstance(node.func.value, ast.Constant)
                    and node.func.value.value == ","):
                found.append((path.name, node.lineno, ast.unparse(node)))
    assert found == []


def test_perfbench_span_names_resolve():
    # perfbench/run.py --trace 1 wraps these attributes by name
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(mod, attr) for mod, attr, _span in spans.TRACED]
    names += [("fileio", attr) for attr in spans.PARSE + spans.SERIALIZE]
    missing = [(mod, attr) for mod, attr in names
               if not hasattr(importlib.import_module(f"whitney.{mod}"), attr)]
    assert missing == []


def test_byte_identity_sweep_runs_every_subcommand():
    spec = importlib.util.spec_from_file_location("byte_identity",
                                                  ROOT / "tools" / "byte_identity.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    from whitney import cli

    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    swept = {argv[0] for argv in sweep.commands(CORPUS)}
    assert set(subparsers.choices) <= swept


def test_byte_identity_sweep_fails_on_a_crash(tmp_path):
    # a stub whitney package whose cli.main raises on every command, over an empty corpus
    corpus = tmp_path / "whitney" / "corpus"
    corpus.mkdir(parents=True)
    (corpus / "index.json").write_text('{"complexes": []}')
    (tmp_path / "whitney" / "__init__.py").write_text("")
    (tmp_path / "whitney" / "cli.py").write_text("def main(argv):\n    raise RuntimeError(argv)\n")
    proc = subprocess.run([sys.executable, ROOT / "tools" / "byte_identity.py", tmp_path],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines and all(line.startswith("raised-RuntimeError ") for line in lines)
