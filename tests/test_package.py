"""Checks on the source of the whole package, read as syntax trees."""

import ast
import glob
import importlib
import os

import askgate

PACKAGE_DIR = os.path.dirname(os.path.abspath(askgate.__file__))


def package_modules():
    """``(module, syntax tree)`` for each file of the package."""
    for path in sorted(glob.glob(os.path.join(PACKAGE_DIR, "*.py"))):
        name = os.path.basename(path)[:-len(".py")]
        module = importlib.import_module("askgate" if name == "__init__" else f"askgate.{name}")
        with open(path, "r", encoding="utf-8") as fh:
            yield module, ast.parse(fh.read(), filename=path)


def raised_name(node):
    """The name a ``raise`` statement raises: ``X`` for ``raise X``,
    ``raise X(...)`` and ``raise mod.X(...)``."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)


def test_every_exception_class_of_the_package_is_raised_in_it():
    # An error type that nothing raises still costs every caller that
    # catches it a clause, and its docs describe a failure that cannot occur.
    defined, raised = {}, set()
    for module, tree in package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name, None)
                if isinstance(cls, type) and issubclass(cls, BaseException):
                    defined[node.name] = module.__name__
            elif isinstance(node, ast.Raise) and node.exc is not None:
                raised.add(raised_name(node))
    assert defined
    dead = {name: module for name, module in defined.items() if name not in raised}
    assert dead == {}, f"exception classes the package never raises: {dead}"


def test_every_tanh_of_the_package_sits_in_the_one_trunk_loop():
    # The forward, the MC-Dropout passes and the update's forward all run
    # policy.trunk_activations; a second loop would be a second place whose
    # bits must be kept equal to it.
    inside, outside = 0, []
    for module, tree in package_modules():
        loop = set()
        if module.__name__ == "askgate.policy":
            loop = {node for top in tree.body if isinstance(top, ast.FunctionDef)
                    and top.name == "trunk_activations" for node in ast.walk(top)}
        for node in ast.walk(tree):
            if getattr(node, "attr", getattr(node, "id", None)) == "tanh":
                if node in loop:
                    inside += 1
                else:
                    outside.append(f"{module.__name__}:{node.lineno}")
    assert inside
    assert outside == [], f"tanh outside policy.trunk_activations: {outside}"


def test_only_the_policy_module_slices_a_parameter_vector():
    # policy.build_policy is the one owner of where an array sits in
    # ``flat``; any other module moves parameters through the layer views.
    sliced = []
    for module, tree in package_modules():
        if module.__name__ == "askgate.policy":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "flat"):
                sliced.append(f"{module.__name__}:{node.lineno}")
    assert sliced == [], f"slices of a .flat vector outside askgate.policy: {sliced}"


def test_no_module_of_the_package_encodes_an_observation():
    # The policy reads cell indices; env.encode_observation is the documented
    # one-hot observation, which only tests and the benchmark build.
    calls = []
    for module, tree in package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "attr", getattr(func, "id", None)) == "encode_observation":
                    calls.append(f"{module.__name__}:{node.lineno}")
    assert calls == [], f"encode_observation called in the package: {calls}"


def test_only_the_env_state_computes_a_cell_index():
    # ``row * n + col`` has one owner, env.EnvState.cell; every other module
    # reads that property.
    owner, others = 0, []
    for module, tree in package_modules():
        cell = set()
        if module.__name__ == "askgate.env":
            cell = {node for top in tree.body if isinstance(top, ast.ClassDef)
                    and top.name == "EnvState" for fn in top.body
                    if isinstance(fn, ast.FunctionDef) and fn.name == "cell"
                    for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                    and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Mult)
                    and getattr(node.left.left, "attr", None) == "row"
                    and getattr(node.right, "attr", None) == "col"):
                if node in cell:
                    owner += 1
                else:
                    others.append(f"{module.__name__}:{node.lineno}")
    assert others == [], f"row * n + col outside env.EnvState.cell: {others}"
    assert owner == 1


def test_only_the_gate_episode_advances_a_generator():
    # gate.run_episode is the one owner of the MC-Dropout mask stream: it
    # alone knows which steps the cache served and skips their draws.
    owner, others = 0, []
    for module, tree in package_modules():
        episode = set()
        if module.__name__ == "askgate.gate":
            episode = {node for top in tree.body if isinstance(top, ast.FunctionDef)
                       and top.name == "run_episode" for node in ast.walk(top)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "advance"
                    and getattr(node.value, "attr", None) == "bit_generator"):
                if node in episode:
                    owner += 1
                else:
                    others.append(f"{module.__name__}:{node.lineno}")
    assert others == [], f"bit_generator.advance outside gate.run_episode: {others}"
    assert owner == 1


def test_only_the_lm_consult_catches_a_transport_error():
    # lm.consult is the one owner of the consult: it alone turns a transport
    # error into a status, so a broken client keeps the policy's action.
    owner, others = 0, []
    for module, tree in package_modules():
        consult = set()
        if module.__name__ == "askgate.lm":
            consult = {node for top in tree.body if isinstance(top, ast.FunctionDef)
                       and top.name == "consult" for node in ast.walk(top)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ExceptHandler) and node.type is not None
                    and "LmTransportError" in ast.unparse(node.type)):
                if node in consult:
                    owner += 1
                else:
                    others.append(f"{module.__name__}:{node.lineno}")
    assert others == [], f"LmTransportError caught outside lm.consult: {others}"
    assert owner == 1


def test_no_module_of_the_package_calls_repr():
    # csv.writer alone formats a float, in its shortest round-trip form; a
    # repr where a CSV row is made writes a NumPy float as
    # ``np.float64(...)``, which no reader of the artifacts parses.
    calls = [f"{module.__name__}:{node.lineno}" for module, tree in package_modules()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "repr"]
    assert calls == [], f"repr called in the package: {calls}"
