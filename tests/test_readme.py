"""The README's file-format examples and command lines are valid inputs."""

import json
import re
import shlex
from pathlib import Path

from qutrit_pingpong import cli
from qutrit_pingpong.attack import attack_from_dict
from qutrit_pingpong.information import frequency_table_from_dict
from qutrit_pingpong.protocol import ProtocolConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_file_format_examples_parse():
    section = README.read_text(encoding="utf-8").split("## File formats")[1].split("\n## ")[0]
    freq, attacks, config = re.findall(r"```json\n(.*?)```", section, re.S)
    frequency_table_from_dict(json.loads(freq), "README frequency table")
    specs = [attack_from_dict(json.loads(line)) for line in attacks.splitlines()]
    assert len(specs) == 3
    ProtocolConfig.from_dict(json.loads(config))


def test_command_lines_parse():
    blocks = re.findall(r"```\w*\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("qutrit-pingpong ")]
    commands = set()
    for line in lines:
        argv = shlex.split(re.sub(r"\s*>\s*\S+$", "", line))[1:]
        commands.add(cli._build_parser().parse_args(argv).command)
    assert commands == set(cli._DISPATCH)
