import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import pins  # noqa: E402  (found through the path above)

_PINS = pytest.StashKey()


def pytest_addoption(parser):
    parser.addoption(
        "--pin-digests",
        action="store_true",
        help=f"rewrite tests/{pins.PIN_FILE.name} from this session's runs instead of checking them",
    )


@pytest.fixture(scope="session")
def pinned(request):
    return request.config.stash.setdefault(_PINS, pins.Pins(request.config.getoption("--pin-digests")))


def pytest_sessionfinish(session, exitstatus):
    recorder = session.config.stash.get(_PINS, None)
    if recorder is not None and recorder.regenerate and exitstatus == 0:  # never pin a failing session
        recorder.write()
