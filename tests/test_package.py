"""The package's public surface."""

import qutrit_pingpong


def test_every_exported_name_resolves():
    missing = [name for name in qutrit_pingpong.__all__ if not hasattr(qutrit_pingpong, name)]
    assert missing == []
