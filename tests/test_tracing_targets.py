"""Every name the traced benchmark wraps still exists in the package.

``perfbench/tracing.py`` wraps evidunc functions and methods by name and
reports the ones it cannot find; the benchmark's self-test fails on them,
but only after half a minute of toy workloads. This test reads the same
target list and resolves each name the way the tracer does, without
installing a wrapper or running a workload, so deleting or renaming a
traced name fails the suite at once.
"""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_targets() -> list:
    """``TARGETS`` of the tracer, read from its source; nothing is written
    next to it and nothing is wrapped."""
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace["TARGETS"]


def test_every_traced_name_resolves():
    targets = traced_targets()
    assert targets
    missing = []
    for module_name, class_name, attr, _, _ in targets:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        if owner is None or vars(owner).get(attr) is None:
            missing.append(f"{module_name}.{class_name or ''}.{attr}")
    assert missing == []


def test_names_the_tracer_patches_exist():
    # _install_cli and _install_pools replace these module attributes.
    cli = importlib.import_module("evidunc.cli")
    experiments = importlib.import_module("evidunc.experiments")
    assert callable(cli.json.dumps)
    assert callable(cli.Path)
    assert callable(experiments.ProcessPoolExecutor)
