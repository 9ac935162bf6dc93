"""The benchmark's traced run wraps ugcaudio functions by name.

`perfbench/spans.py` lists them per module in LAYER_FUNCTIONS; a name that
no longer resolves makes a traced run raise AttributeError. This reads the
file and does not import or change it.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
