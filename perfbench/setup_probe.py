"""Set-up probe: import the CLI and load and validate one config, then exit.

perfbench/run.py times this script from outside, so the figure includes
interpreter start, ``import d2dgames`` and config load/validate: everything a
run pays before its first drop.

    python3 perfbench/setup_probe.py perfbench/configs/content.cfg
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from d2dgames import cli  # noqa: E402,F401  the entry point's imports are part of set-up
from d2dgames.config import load_config  # noqa: E402

load_config(sys.argv[1]).validate()
