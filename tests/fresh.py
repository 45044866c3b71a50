"""The environment of a fresh interpreter that a test starts.

It imports the birdstrike this suite imports, found through birdstrike.__file__ (the
checkout's src/ or an installed copy), and reads no BIRDSTRIKE_CONFIG, so a user's
config file changes no call.
"""

import os
from pathlib import Path

import birdstrike


def fresh_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key != "BIRDSTRIKE_CONFIG"}
    env["PYTHONPATH"] = str(Path(birdstrike.__file__).resolve().parent.parent)
    return env
