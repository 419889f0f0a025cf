"""README.md's Python blocks run, in order, in one namespace, as a reader
pasting them into one session would run them; its run config parses, and
its list of top-level keys is the one the config reader checks."""

import json
import re
from pathlib import Path

from cbo import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_json_run_config_parses():
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        raw = json.loads(block)
        assert set(raw) <= set(cli._TOP_LEVEL_KEYS)
        cli.parse_run_config(raw)


def test_top_level_keys_listed():
    sentence = re.search(r"The top level of a config takes (.*?);", README.read_text(), re.S)
    assert re.findall(r"`(\w+)`", sentence[1]) == list(cli._TOP_LEVEL_KEYS)


def exit_codes_named(paragraph):
    """The codes that a paragraph starting at ``Exit codes:`` names, up to the
    end of its sentence, leaving out the asides in parentheses."""
    sentence = re.search(r"Exit codes: (.*?)\.\s", paragraph, re.S)[1]
    while "(" in sentence:
        sentence = re.sub(r"\([^()]*\)", "", sentence)
    return sorted(int(code) for code in re.findall(r"`?\b(\d+)`?\s+[a-z]", sentence))


def test_exit_codes_listed():
    codes = sorted(value for name, value in vars(cli).items() if name.startswith("EXIT_"))
    assert exit_codes_named(README.read_text()) == codes
    assert exit_codes_named(cli.__doc__) == codes
