import os
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# This checkout's src/ goes last, in this process and in the CLI
# subprocesses, so that a PYTHONPATH naming another checkout's src/ wins.
SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.append(SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (os.environ.get("PYTHONPATH"), SRC)))


@pytest.fixture
def rng():
    return random.Random(0x5EED)
