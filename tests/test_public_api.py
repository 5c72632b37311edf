"""The public surface: one tolerance profile per object, and the README's
library quickstart run as written."""

import inspect
import re
from pathlib import Path

import numpy as np

import affine_actions
from affine_actions import actions, cli, constructions, linalg, reps

README = Path(__file__).resolve().parents[1] / "README.md"

# callables that set a profile (constructors, checks against a given
# profile) or have no object to read one from (the matrix primitives)
SETS_A_PROFILE = {"Representation.__init__", "AffineSubspace.contains", "validity_report"}


def _takes_a_profile(function) -> bool:
    for param in inspect.signature(function).parameters.values():
        if param.name == "tol" or "ToleranceProfile" in str(param.annotation):
            return True
        if isinstance(param.default, linalg.ToleranceProfile):
            return True
    return False


def _public_callables():
    """(qualified name, function) of every public callable of the package and
    of the modules that take actions or representations, with the public
    methods of their classes, and of every CLI formatter."""
    found = {name: getattr(affine_actions, name) for name in affine_actions.__all__}
    found.update((f"cli.VERBS[{verb!r}]", entry.run) for verb, entry in cli.VERBS.items())
    for module in (actions, reps, constructions, cli):
        found.update(
            (name, obj) for name, obj in vars(module).items()
            if not name.startswith("_") and callable(obj) and getattr(obj, "__module__", None) == module.__name__
        )
    for name, obj in found.items():
        if getattr(obj, "__module__", None) == linalg.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if (attr == "__init__" or not attr.startswith("_")) and inspect.isfunction(member):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


def test_no_call_overrides_the_profile_of_its_objects():
    overriding = [name for name, f in _public_callables() if _takes_a_profile(f) and name not in SETS_A_PROFILE]
    assert overriding == []
    # the exceptions are still there, so the list above stays honest
    assert {name for name, f in _public_callables() if _takes_a_profile(f)} == SETS_A_PROFILE


def test_the_readme_quickstart_runs_as_written(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README quickstart", "exec"), {})
    tag, base = capsys.readouterr().out.splitlines()
    assert tag == "Reducible"
    assert np.allclose(np.array(base.strip("[]").split(), dtype=float), [0.0, 1.0])
