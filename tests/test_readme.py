"""The README's Python API example runs as written, from the repository
root, where its fixture paths resolve."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_readme_python_example_runs(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.M | re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    scope = {}
    exec(compile(blocks[0], "README.md", "exec"), scope)
    assert scope["report"].ok and scope["solidity"].startswith("// SPDX")
    assert scope["world"].current_state == "Finalized"
    assert all(record.ok for record in scope["records"])
