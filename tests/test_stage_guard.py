"""Every Ray Data stage of the package goes through ``util.map_batches`` /
``util.map_groups``: those wrappers are the one place that passes the
package's ``runtime_env``. This walks the AST of the package and of
``__ray_entry__.py`` and fails on any direct ``.map_batches`` /
``.map_groups`` call, or any ``runtime_env=`` keyword, outside ``util.py``.
No Ray needed."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = ROOT / "plugin_serdes_ray"

# the one plain Ray task (not a Ray Data stage) that needs the package on
# its workers' path: the fixtures writer's ``@ray.remote(...)``
ALLOWED_RUNTIME_ENV = {("plugin_serdes_ray/fixtures.py", "remote")}


def _sources():
    files = sorted(PKG.rglob("*.py")) + [ROOT / "__ray_entry__.py"]
    return [f for f in files if f != PKG / "util.py"]


def _callee(call: ast.Call) -> str:
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")


def stage_violations(path: pathlib.Path, rel: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in ("map_batches", "map_groups")):
            out.append(f"{rel}:{node.lineno}: .{node.func.attr}(...) — "
                       f"use util.{node.func.attr}")
        for kw in node.keywords:
            if (kw.arg == "runtime_env"
                    and (rel, _callee(node)) not in ALLOWED_RUNTIME_ENV):
                out.append(f"{rel}:{kw.lineno}: runtime_env= outside util.py")
    return out


def test_stages_go_through_util_wrappers():
    files = _sources()
    assert len(files) > 30, files   # the walk really covers the package
    bad = []
    for f in files:
        bad += stage_violations(f, f.relative_to(ROOT).as_posix())
    assert not bad, "\n".join(bad)


def test_guard_catches_a_raw_stage(tmp_path):
    """The checker itself flags both forms it exists to catch."""
    mod = tmp_path / "mod.py"
    mod.write_text("def f(ds, env):\n"
                   "    ds = ds.map_batches(len)\n"
                   "    return g(ds, runtime_env=env)\n")
    bad = stage_violations(mod, "plugin_serdes_ray/mod.py")
    assert len(bad) == 2 and ":2:" in bad[0] and ":3:" in bad[1], bad
