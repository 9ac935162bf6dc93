"""The benchmark's traced run wraps ugcaudio functions by name.

`perfbench/spans.py` lists them per module in LAYER_FUNCTIONS; a name that
no longer resolves makes a traced run raise AttributeError. The workloads in
`perfbench/workloads.py` look up more names on ugcaudio modules at call
time. This reads both files and does not import or change them.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
WORKLOADS = SPANS.with_name("workloads.py")


def layer_functions() -> dict[str, list[str]]:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYER_FUNCTIONS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no LAYER_FUNCTIONS")


def test_every_traced_name_resolves():
    missing = []
    for layer, names in layer_functions().items():
        module = importlib.import_module(f"ugcaudio.{layer}")
        for dotted in names:
            obj = module
            for part in dotted.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"ugcaudio.{layer}.{dotted}")
    assert missing == []


def workload_names() -> set[str]:
    """`module.name` for each attribute workloads.py reads off a ugcaudio module.

    The modules are those it imports as `from ugcaudio import module` or
    `import ugcaudio.module`.
    """
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules = {}  # local name -> ugcaudio module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ugcaudio":
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in modules:
            names.add(f"{modules[owner.id]}.{node.attr}")
        elif isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name) and owner.value.id == "ugcaudio":
            names.add(f"{owner.attr}.{node.attr}")
    return names


def test_every_workload_name_resolves():
    names = workload_names()
    # The walk itself finds the lookups the workloads are known to make.
    assert {"cli.main", "fingerprint.fingerprint_clip", "fingerprint.query", "storage.load_index"} <= names
    missing = []
    for dotted in sorted(names):
        layer, name = dotted.split(".")
        if not hasattr(importlib.import_module(f"ugcaudio.{layer}"), name):
            missing.append(f"ugcaudio.{dotted}")
    assert missing == []
