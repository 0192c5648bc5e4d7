"""bench.py records where each result came from next to ``num_cpus``.

bench.py sets allocator environment variables at import, so it is imported
in a child process, never in the test process."""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _provenance(root: str, num_cpus: int) -> dict:
    code = f"import bench, json; print(json.dumps(bench.provenance({num_cpus})))"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_provenance_fields():
    import numpy
    import pyarrow
    import ray

    host = os.cpu_count()
    p = _provenance(ROOT, host + 1)
    assert p["host_cpus"] == host
    assert p["cpus_exceed_host"] is True
    assert _provenance(ROOT, host)["cpus_exceed_host"] is False
    assert (p["ray"], p["pyarrow"], p["numpy"]) == (
        ray.__version__, pyarrow.__version__, numpy.__version__
    )
    if os.path.exists(os.path.join(ROOT, ".git")):
        assert len(p["git_sha"]) == 40 and p["source_sha256"] is None


def test_provenance_without_git_hashes_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "bench.py"), tmp_path / "bench.py")
    pkg = tmp_path / "lucene_ray"
    pkg.mkdir()
    (pkg / "a.py").write_text("x = 1\n")
    first = _provenance(str(tmp_path), 1)
    assert first["git_sha"] is None and len(first["source_sha256"]) == 64
    (pkg / "a.py").write_text("x = 2\n")
    assert _provenance(str(tmp_path), 1)["source_sha256"] != first["source_sha256"]
