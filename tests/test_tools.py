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
