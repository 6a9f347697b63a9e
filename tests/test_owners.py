"""One owner per concept: each rule's pattern may match a line of a ``.py``
file under ``src/`` only in the rule's owning module."""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# name: (pattern, owning module under src/mrfmap/, why, lines the rule
# refuses elsewhere: one per alternative of its pattern)
RULES = {
    "complex": (r"iscomplexobj", "files.py", "files.real_rows alone refuses complex arrays",
                ["if np.iscomplexobj(values):"]),
    "finite": (r"isfinite", "files.py", "files.real_rows and files.number alone refuse NaN "
               "and inf", ["ok = np.isfinite(values).all()", "ok = math.isfinite(value)"]),
    "caps": (r"_orders_swept|argsort\(-?caps", "epg.py", "epg alone orders and prices a "
             "batch by order cap", ["swept = _orders_swept(caps, n)",
                                    "order = np.argsort(-caps)", "order = np.argsort(caps)"]),
    "windows": (r"sliding_window_view|_conv_windows", "nn/models.py", "nn/models.py alone "
                "makes conv windows and sizes the blocks that bound their copy",
                ["w = sliding_window_view(x, 3, axis=1)", "w = _conv_windows(x, 3)"]),
    "kinds": (r"spec\.kind (==|!=|in )", "nn/models.py", "nn/models.py alone branches on a "
              "network's kind", ["if spec.kind == 'cnn1d':", "if spec.kind != 'ann':",
                                 "if spec.kind in ('ann', 'cnn1d'):"]),
    "cells": (r"np\.tanh|sigmoid\(", "nn/cells.py", "cells.step and cells.step_grad alone "
              "apply the cell's gates", ["x = np.tanh(y)", "z = cells.sigmoid(y)"]),
    "blobs": (r"\.tofile\(|np\.fromfile|np\.frombuffer|\.readinto\(", "files.py",
              "files.write_blob and files.read_blob alone write and read the float32 "
              "blob of an array artifact",
              ["atoms.tofile(fh)", "atoms = np.fromfile(fh, dtype='<f4')",
               "flat = np.frombuffer(raw, dtype='<f4')", "fh.readinto(blob)"]),
    "processes": (r"multiprocessing|concurrent\.futures|ProcessPoolExecutor|ThreadPoolExecutor"
                  r"|threading|sched_getaffinity|sched_setaffinity|thread-self|os\.fork",
                  "parallel.py", "parallel.py alone counts CPUs, places workers, and starts "
                  "processes, pools and threads",
                  ["import multiprocessing", "from concurrent.futures import wait",
                   "pool = ProcessPoolExecutor(2)", "pool = ThreadPoolExecutor(2)",
                   "import threading", "cpus = os.sched_getaffinity(0)",
                   "os.sched_setaffinity(0, {1})", "open('/proc/thread-self/stat')",
                   "os.fork()"]),
}


def violations(src: Path, pattern: str, owner: str) -> list[str]:
    """``file:line: text`` of each ``pattern`` match in ``src/**/*.py`` but ``mrfmap/<owner>``."""
    return [f"{path}:{number}: {line.strip()}"
            for path in sorted(src.rglob("*.py")) if path != src / "mrfmap" / owner
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(pattern, line)]


@pytest.mark.parametrize("rule", RULES)
def test_only_the_owner_matches(rule):
    pattern, owner, why, _ = RULES[rule]
    found = violations(SRC, pattern, owner)
    assert not found, f"{why}; outside src/mrfmap/{owner}:\n" + "\n".join(found)


@pytest.mark.parametrize("rule, line", [(rule, line) for rule, (*_, lines) in RULES.items()
                                        for line in lines])
def test_each_rule_refuses_a_planted_line(tmp_path, rule, line):
    pattern, owner, *_ = RULES[rule]
    package = tmp_path / "mrfmap"
    other = package / owner.replace(Path(owner).name, "other.py")
    (package / "nn" / "__pycache__").mkdir(parents=True)
    for path in (package / owner, other):
        path.write_text(f'"""A module."""\n{line}\n')
    # A compiled cache is no source file, whatever bytes it holds.
    (package / "nn" / "__pycache__" / "other.cpython-311.pyc").write_text(line)
    assert violations(tmp_path, pattern, owner) == [f"{other}:2: {line}"]
