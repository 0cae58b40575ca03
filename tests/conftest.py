import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import pins  # noqa: E402  (found through the path above)

pytest_plugins = ("pytester",)

_PINS = pytest.StashKey()
_DESELECTED = pytest.StashKey()


def pytest_addoption(parser):
    parser.addoption(
        "--pin-digests",
        action="store_true",
        help=f"rewrite tests/{pins.PIN_FILE.name} from this session's runs instead of checking them",
    )


@pytest.fixture(scope="session")
def pinned(request):
    return request.config.stash.setdefault(_PINS, pins.Pins(request.config.getoption("--pin-digests")))


def pytest_deselected(items):
    if items:
        items[0].config.stash[_DESELECTED] = True


def _whole_suite(config) -> bool:
    """Whether the session collected the testpaths whole: no file, node id, ``--ignore``, ``-k`` or ``-m``."""
    given = {(config.invocation_params.dir / arg).resolve() for arg in config.args}
    testpaths = {(config.rootpath / path).resolve() for path in config.getini("testpaths")}
    ignored = config.getoption("ignore") or config.getoption("ignore_glob")
    return given == testpaths and not ignored and not config.stash.get(_DESELECTED, False)


def pytest_sessionfinish(session, exitstatus):
    recorder = session.config.stash.get(_PINS, None)
    if recorder is not None and recorder.regenerate and exitstatus == 0:  # never pin a failing session
        recorder.write(whole_suite=_whole_suite(session.config))
