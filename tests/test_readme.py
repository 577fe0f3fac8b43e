"""The README's library quick tour runs as written, its CLI examples are
accepted by their subcommands, and the README and the package's
docstrings and comments name only code that exists."""

import ast
import importlib
import inspect
import io
import re
import tokenize
from pathlib import Path

import delaystab
from delaystab import cli

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("segment", "sampler", "dde", "checkers", "lyapunov", "cli")


def test_readme_quick_tour_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("consistent ")


def test_readme_cli_examples_are_accepted(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    section = text[text.index("## Command line"):]
    section = section[:section.index("\n## ", 1)]
    examples = re.findall(r"### (\w+)\n+```json\n(.*?)```", section, re.S)
    assert sorted(name for name, _ in examples) == sorted(cli.DISPATCH)

    # The envelope example fits 100 trajectories; one per shell exercises
    # the same binding and the same outputs.
    fit, required, optional = cli.ENVELOPE

    def one_per_shell(*args, **kwargs):
        bound = inspect.signature(fit).bind(*args, **kwargs)
        bound.arguments["budget"] = bound.arguments["shells"]
        return fit(*bound.args, **bound.kwargs)

    monkeypatch.setattr(cli, "ENVELOPE", (one_per_shell, required, optional))
    for name, body in examples:
        out = tmp_path / name
        out.mkdir()
        (out / "config.json").write_text(body)
        code = cli.main([name, "--config", str(out / "config.json"),
                         "--out", str(out)])
        assert code != 1, (name, capsys.readouterr().err)
        assert len(list(out.iterdir())) > 1, name


def _prose():
    """(where, text) of the README and of every docstring and comment of
    the package sources."""
    yield "README.md", README.read_text()
    for path in sorted(Path(delaystab.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    yield path.name, doc
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.COMMENT:
                yield path.name, tok.string


def test_docs_name_only_code_that_exists():
    """Every dotted module._name resolves in its module, and every bare
    _name word (not a norm subscript such as ||x||_X) is an attribute of
    a package module or of a class of the package."""
    modules = {m: importlib.import_module(f"delaystab.{m}") for m in MODULES}
    known = set()
    for module in (delaystab, *modules.values()):
        for name, value in vars(module).items():
            known.add(name)
            if isinstance(value, type) \
                    and value.__module__.startswith("delaystab"):
                known.update(dir(value))
    dotted = re.compile(r"\b(" + "|".join(MODULES) + r")\.(_\w+)")
    bare = re.compile(r"(?<![\w.|])_[A-Za-z]\w*")
    seen, missing = 0, []
    for where, text in _prose():
        for module, name in dotted.findall(text):
            seen += 1
            if not hasattr(modules[module], name):
                missing.append((where, f"{module}.{name}"))
        for name in bare.findall(text):
            seen += 1
            if name not in known:
                missing.append((where, name))
    assert seen >= 30  # the patterns still find the references
    assert missing == []
