"""The documented public surface is the real one."""

import re

import gfe


def test_all_matches_the_package_docstring():
    documented = list(dict.fromkeys(re.findall(r"``(\w+)``", gfe.__doc__)))
    assert len(set(gfe.__all__)) == len(gfe.__all__)
    assert sorted(documented) == sorted(gfe.__all__)
    for name in gfe.__all__:
        assert getattr(gfe, name) is not None
