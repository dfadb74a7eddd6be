import dataclasses
import re
from pathlib import Path

from hermitia import Tolerances

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_every_tolerance_name():
    listed = re.search(r"named tolerances \(([^)]*)\)", README.read_text(encoding="utf-8")).group(1)
    assert re.findall(r"`(\w+)`", listed) == [f.name for f in dataclasses.fields(Tolerances)]
