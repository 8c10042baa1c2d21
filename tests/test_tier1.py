"""The tier-1 command CI runs is the one ROADMAP.md documents."""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ci_runs_the_documented_tier1_command():
    # Both read as plain text: CI installs no YAML parser.
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    ci = re.findall(r"^\s+run: (.*python -m pytest.*)$", workflow, re.M)
    documented = re.findall(r"^\*\*Tier-1 verify:\*\* `(.*)`$",
                            (ROOT / "ROADMAP.md").read_text(), re.M)
    assert len(ci) == 1 and len(documented) == 1
    assert ci == documented
