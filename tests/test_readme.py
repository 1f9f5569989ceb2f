"""The README's file-format examples are valid inputs."""

import json
import re
from pathlib import Path

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
