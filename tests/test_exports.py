"""Each public name has one import path: its own module.  Every name the
packages export resolves, and README's Library example and command lines
run as written."""

from __future__ import annotations

import re
import shlex
import subprocess
import sys
from pathlib import Path

import rwdetect
import rwdetect.classifiers
from rwdetect.capture import parse_pcap
from rwdetect.cli import run
from rwdetect.conversation import aggregate, conversations_to_csv

from conftest import build_pcap, packet_csv, subprocess_env, tcp_udp_frame

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


def class_frames(port: int) -> list:
    """Pcap records of twelve three-packet TCP conversations to ``port``, since
    README's examples run 10-fold; those to 445 carry 100 more bytes a packet."""
    return [(i + 0.1 * j, tcp_udp_frame("10.0.0.1", "10.0.0.2", 6, 1000 + i, port,
                                         extra=100 * (port == 445) + j))
            for i in range(12) for j in range(3)]


def test_readme_library_example_runs(tmp_path):
    for name, port in (("ransomware.pcap", 445), ("benign.pcap", 443)):
        (tmp_path / name).write_bytes(build_pcap(class_frames(port)))
    example = re.search(r"## Library\n.*?```python\n(.*?)```", README.read_text(), re.S)[1]
    done = subprocess.run([sys.executable, "-W", "error::ResourceWarning", "-c", example],
                          cwd=tmp_path, env=subprocess_env(), capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert 0.0 <= float(done.stdout) <= 1.0


def test_readme_command_lines_run(tmp_path, monkeypatch):
    capture = build_pcap(sorted(class_frames(445) + class_frames(443), key=lambda f: f[0]))
    (tmp_path / "capture.pcap").write_bytes(capture)
    (tmp_path / "packets.csv").write_text(packet_csv(parse_pcap(capture)[0]))
    for name, port in (("bad.csv", 445), ("good.csv", 443)):
        packets, _ = parse_pcap(build_pcap(class_frames(port)))
        (tmp_path / name).write_text(conversations_to_csv(aggregate(packets)))
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("rwdetect ")]
    assert {shlex.split(line)[1] for line in lines} == {
        "extract", "label", "train", "eval", "bench", "detect"}
    for line in lines:
        argv = shlex.split(line)[1:]
        output = Path(argv[argv.index("-o") + 1]) if "-o" in argv else None
        if output:
            output.unlink(missing_ok=True)
        assert run(argv) == 0, line
        assert output is None or output.exists(), line
