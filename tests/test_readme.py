import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    # the README's Python example is run as written, so it stays true
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
