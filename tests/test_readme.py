"""The README's library quick tour runs as written, and its CLI examples
are accepted by their subcommands."""

import inspect
import re
from pathlib import Path

from delaystab import cli

README = Path(__file__).resolve().parent.parent / "README.md"


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
