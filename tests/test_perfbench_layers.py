"""The benchmark's tracer wraps library functions by name; every name it
lists must resolve, or a traced run stops before its first op."""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layer_functions() -> dict[str, tuple[str, str]]:
    # executed from its source, so no bytecode cache is written next to it
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace["LAYER_FUNCTIONS"]


LAYER_FUNCTIONS = _layer_functions()


@pytest.mark.parametrize("span", sorted(LAYER_FUNCTIONS))
def test_traced_layer_resolves(span):
    module_name, attr = LAYER_FUNCTIONS[span]
    module = importlib.import_module(f"affine_actions.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        target = vars(getattr(module, cls_name))[method]  # the tracer patches the class dict
    else:
        target = getattr(module, attr)
    assert callable(target), span
