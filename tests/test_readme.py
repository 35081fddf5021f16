"""The README's Library sketch runs against the current public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    sketch = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", sketch, re.S).group(1)
    exec(compile(code, f"{README.name} Library sketch", "exec"), {})
