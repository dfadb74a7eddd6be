import dataclasses
import re
import shlex
from pathlib import Path

from hermitia import Tolerances, cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_every_tolerance_name():
    listed = re.search(r"named tolerances \(([^)]*)\)", README.read_text(encoding="utf-8")).group(1)
    assert re.findall(r"`(\w+)`", listed) == [f.name for f in dataclasses.fields(Tolerances)]


def test_readme_cli_lines_parse():
    # parsing only: no file named in the block is read
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("hermitia ")]
    verbs = [cli._parser().parse_args(argv[1:]).verb for argv in lines]
    assert sorted(set(verbs)) == sorted(cli.VERBS)
