"""Print the monotonic clock at the point where the CLI makes its first layer call.

The parent records the clock just before spawning this interpreter, so the
difference is the set-up a user pays on every command: interpreter start,
importing the package and loading the configuration.
"""

import time

from qndlab import cli  # noqa: F401  (the import is the measured work)
from qndlab.config import load_config

cfg = load_config(text="")
cfg.system()
cfg.synth_config()
print(repr(time.monotonic()))
