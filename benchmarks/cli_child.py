"""Run one gfe command in this fresh interpreter and sample the machine speed.

usage: cli_child.py KERNEL_FILE ARG...

Imports gfe and calls gfe.cli.main(ARG...), as ``python -m gfe.cli ARG...``
would, writes the kernel times of speed.measured() to KERNEL_FILE, and exits
with the command's exit code.
"""

import sys
from pathlib import Path

import speed

with speed.measured() as t:
    from gfe import cli

    code = cli.main(sys.argv[2:])
Path(sys.argv[1]).write_text(" ".join(repr(k) for k in t.kernel))
sys.exit(code)
