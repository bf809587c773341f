"""README's Python quick start runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_block_prints_the_documented_verdict(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    documented = re.search(r'^print\(d\.verdict\)\s+# "(\w+)"$', block, re.MULTILINE)
    assert documented is not None and documented.group(1) == "NotVanishes"
    exec(compile(block, f"{README.name} quick start", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == documented.group(1)
