"""CI runs only what a tier-1 run cannot: the install, the installed console
script, the CLI module under `-W error`, tier-1 itself on each Python version,
and the benchmark.  A new check is a tier-1 test, not a CI step."""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_the_workflow_holds_only_the_steps_tier_1_cannot_run():
    steps = re.findall(r"^      - (?:name|uses): (.*)$", WORKFLOW.read_text(encoding="utf-8"), re.M)
    assert steps == [
        "actions/checkout@v4",
        "actions/setup-python@v5",
        "Install flowcat with its test dependencies",
        "Console script",
        "The CLI module runs with every warning an error",
        "Tier-1 tests",
        "Benchmark tests",
        "Untraced benchmark pass on every workload",
        "Traced benchmark pass on every workload",
    ]
