"""Run configuration for ``repro lint``.

Rule *policy* — which packages a rule patrols, which names it treats
as simulated time or chunk sequences — is not configured here: each
rule owns its scope as module-level tuples in its own rule file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class LintConfig:
    """Where diagnostic paths are rooted, and which rules run."""

    #: Root against which diagnostic paths are reported (the repo root).
    root: Path = field(default_factory=Path.cwd)

    #: Rule ids to run; ``None`` means every registered rule.
    rules: tuple[str, ...] | None = None
