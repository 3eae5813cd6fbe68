"""Each public name has one import path: its own module.  Every name the
packages export resolves, and README's Library example runs as written."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import rwdetect
import rwdetect.classifiers

from conftest import build_pcap, subprocess_env, tcp_udp_frame

README = Path(__file__).parents[1] / "README.md"


def test_star_imports_resolve():
    for module in (rwdetect, rwdetect.classifiers):
        namespace: dict = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(module.__all__) <= namespace.keys(), module.__name__


def test_root_exports_only_the_version():
    assert rwdetect.__all__ == ["__version__"]


def test_capture_loads_only_its_own_modules():
    # The root once re-exported every module's names, so importing one
    # module loaded the whole package.
    code = ("import sys, rwdetect.capture; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'rwdetect')))")
    done = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == ["rwdetect", "rwdetect.capture", "rwdetect.errors"]


def test_readme_library_example_runs(tmp_path):
    # Twelve TCP conversations a capture, since the example runs 10-fold.
    for name, port in (("ransomware.pcap", 445), ("benign.pcap", 443)):
        records = [(i + 0.1 * j, tcp_udp_frame("10.0.0.1", "10.0.0.2", 6, 1000 + i, port,
                                                extra=100 * (port == 445) + j))
                   for i in range(12) for j in range(3)]
        (tmp_path / name).write_bytes(build_pcap(records))
    example = re.search(r"## Library\n.*?```python\n(.*?)```", README.read_text(), re.S)[1]
    done = subprocess.run([sys.executable, "-W", "error::ResourceWarning", "-c", example],
                          cwd=tmp_path, env=subprocess_env(), capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert 0.0 <= float(done.stdout) <= 1.0
