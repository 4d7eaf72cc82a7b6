"""The misuse sweep: every number or integer key of every command, at values
no run should take, ends in a clean exit.

The cases are generated from cli.COMMANDS and cli.KINDS, so a new key is
swept without editing this module.  Each case runs cli.main in process,
with RuntimeWarning an error (pyproject's filterwarnings) and the
time_limit fixture's 20 s alarm.
"""

import logging
import math

import pytest

from longwave import cli

NUMBERS = ("0", "-1", "nan", "inf", "1e300", "1e-300", "1e-320", "1e-100")
INTEGERS = ("0", "-1", "1", "2", "3")
VALUES = {cli.NUMBER: NUMBERS, cli.AUTO_OR_NUMBER: NUMBERS, cli.NUMBERS: NUMBERS,
          cli.INTEGER: INTEGERS, cli.INTEGERS: INTEGERS, cli.TEXT: ()}

# a key of a kind not listed here stops the module at collection (KeyError)
CASES = [(command, key, value) for command, keys in cli.COMMANDS.items()
         for key in keys for value in VALUES[cli.KINDS[key]]]

# the one allowance: a step far past the RK4 stability advisory is logged as a
# warning before the run blows up, so those runs (the five commands whose
# scheme.dt reaches a step) print the advisory line before the blow-up line
ADVISORY = ("scheme.dt", "1e300")


def argv(command: str, key: str, value: str, out) -> list[str]:
    override = ["--set", f"{key}={value}"]
    if command == "stability":
        return ["stability", "--hbar", "0.1", "--p-ratio", "1.0", *override]
    head = ["scenario", command] if command in cli.SCENARIOS else command.split()
    return [*head, "--out", str(out), *override]


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize("command,key,value", CASES,
                         ids=[f"{c}-{k}={v}" for c, k, v in CASES])
def test_misuse_exits_cleanly(tmp_path, capsys, caplog, command, key, value):
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING):
        rc = cli.main(argv(command, key, value, out))
    stdout, stderr = capsys.readouterr()
    # what a user sees on stderr: the logged warnings (Python's last-resort
    # handler writes them there), then what main printed
    lines = [r.getMessage() for r in caplog.records] + stderr.splitlines()
    assert rc in {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_BLOWUP, cli.EXIT_IO}
    assert "Traceback" not in stderr
    if rc != cli.EXIT_OK:
        if (key, value) == ADVISORY and len(lines) == 2:
            assert "exceeds stability advisory" in lines[0] and rc == cli.EXIT_BLOWUP
            lines = lines[1:]
        assert len(lines) == 1, lines
        assert not out.exists()
        return
    for line in stdout.splitlines():
        name, eq, text = line.partition(" = ")
        for item in text.split(",") if eq else ():
            try:
                number = float(item)
            except ValueError:
                continue
            assert math.isfinite(number), line
            assert not ("speed" in name and number == 0.0), line
