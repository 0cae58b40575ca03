"""The pinned-digest file: what it covers, and what a ``--pin-digests`` session writes to it."""

import json
from pathlib import Path

import pins

from fedfreq import orchestrator

# an inner session re-imports every plugin module it loads, and hypothesis's costs seconds
_INNER = ("--pin-digests", "-p", "no:cacheprovider", "-p", "no:hypothesispytest")


def test_the_pins_name_every_strategy_the_conv_model_and_one_epoch_rounds():
    # the cases are picked by hand in test_reference.py; none of these may go unnoticed
    words = {word for key in json.loads(pins.PIN_FILE.read_text())["digests"] for word in key.split()}
    wanted = [*(f"strategy={name}" for name in orchestrator.STRATEGIES), "model_id=conv4x8", "local_epochs=1"]
    assert [word for word in wanted if word not in words] == []


def test_a_selected_session_keeps_the_keys_it_did_not_record(pytester, monkeypatch):
    pin_file = pytester.path / "tests" / "pinned_digests.json"
    monkeypatch.setattr(pins, "PIN_FILE", pin_file)
    pytester.makeini("[pytest]\ntestpaths = tests\n")
    pytester.mkdir("tests")
    pytester.makepyfile(
        **{
            "tests/conftest.py": Path(__file__).with_name("conftest.py").read_text(),
            "tests/test_one.py": "def test_a(pinned):\n    pinned.check({'a': 'new'})\n",
            "tests/test_two.py": "def test_b(pinned):\n    pinned.check({'b': 'new'})\n",
        }
    )

    def session(pinned, *args, passed=1):
        pin_file.write_text(json.dumps({"digests": pinned}))
        pytester.runpytest_inprocess(*_INNER, *args).assert_outcomes(passed=passed)
        return json.loads(pin_file.read_text())["digests"]

    pinned = {"a": "old", "b": "old", "gone": "old"}
    for selection in (
        ["tests/test_one.py"],
        ["tests/test_one.py::test_a"],
        ["-k", "test_a"],
        ["--ignore", "tests/test_two.py"],
    ):
        assert session(pinned, *selection) == {**pinned, "a": "new"}, selection
    assert session(pinned, passed=2) == {"a": "new", "b": "new"}
