"""The README's Python API example runs as written."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_python_api_example():
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    samples = [0.1234, 12.5, -3.0004, 7.77777, 0.0, -0.0005, 1e-4]
    namespace = {"samples": samples}
    exec(example, namespace)
    values = namespace["values"]
    assert len(values) == len(samples)
    assert all(abs(v - x) <= 1e-3 for v, x in zip(values, samples))
