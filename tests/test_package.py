"""Tests for the package namespace and for the examples in the README."""

from __future__ import annotations

import ast
import importlib
import shlex
from pathlib import Path

import bowtieseq
import bowtieseq.cli as cli

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
    "BowtieWitness",
    "CharacterizationMismatch",
    "CheckReport",
    "DegreeSequence",
    "Failure",
    "InternalExhaustion",
    "Mismatch",
    "NotPotentially",
    "ParseError",
    "SigmaReport",
    "SimpleGraph",
    "VerificationSummary",
    "ZeroDegreeVertex",
    "__version__",
    "check_potentially",
    "contains_bowtie",
    "degree_sequence",
    "dot_text",
    "edge_list_text",
    "format_sequence",
    "is_graphic",
    "parse_sequence",
    "realize_with_bowtie",
    "sigma",
    "sigma_closed_form",
    "sigma_empirical",
    "verify_characterization",
]

MODULE_ONLY = {
    "characterize": ["matches_cond3", "matches_cond4", "sigma_witness"],
    "graphs": [
        "ENUMERATION_LIMIT",
        "NotGraphic",
        "TooLarge",
        "TraceMismatch",
        "attach_by_degrees",
        "enumerate_realizations",
        "oracle_has_bowtie_realization",
    ],
    "realizer": [
        "BadParams",
        "FamilyId",
        "FamilyPattern",
        "construct_family",
        "family_sequence",
        "match_family",
        "reattach",
    ],
    "sequences": ["LayoffImpossible", "LayoffTrace", "lay_off"],
    "verify": ["SWEEP_LIMIT", "enumerate_graphic_sequences"],
}


def test_the_package_exports_the_names_of_decide_realize_and_verify():
    assert sorted(bowtieseq.__all__) == PUBLIC
    namespace: dict[str, object] = {}
    exec("from bowtieseq import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC
    assert "__getattr__" not in vars(bowtieseq)


def test_module_level_names_stay_in_their_modules():
    assert sum(len(names) for names in MODULE_ONLY.values()) == 22
    for module_name, names in MODULE_ONLY.items():
        module = importlib.import_module(f"bowtieseq.{module_name}")
        for name in names:
            assert name not in vars(bowtieseq), name
            assert name in vars(module), (module_name, name)


def readme_block(heading: str, fence: str) -> str:
    """The first fenced block of the given kind after a README heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n{heading}\n"):]
    opening = f"```{fence}\n"
    start = section.index(opening) + len(opening)
    return section[start:section.index("```", start)]


def test_readme_library_tour_runs_and_shows_its_results():
    source = readme_block("## Library tour", "python")
    lines = source.splitlines()
    namespace: dict[str, object] = {}
    shown = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        _, _, comment = lines[node.end_lineno - 1].partition("#")
        token = comment.split()[0].rstrip(":")
        if token[0].isupper() or token.isdigit():
            assert value == eval(token, vars(bowtieseq)), (token, value)
            shown.append(token)
    assert shown == ["True", "None", "True", "Failure.COND5", "20"]


def test_readme_command_transcripts_match_the_cli(capsys):
    transcript = readme_block("## Command line", "sh")
    runs = [run.splitlines() for run in transcript.strip().split("\n\n")]
    assert len(runs) == 4
    for prompt, *expected in runs:
        command, _, pipe = prompt.removeprefix("$ ").partition("|")
        program, *argv = shlex.split(command)
        assert program == "bowtieseq"
        cli.main(argv)
        out = capsys.readouterr().out.splitlines(keepends=True)
        if pipe:
            tool, count = shlex.split(pipe)
            keep = int(count.removeprefix("-"))
            assert tool in ("head", "tail"), pipe
            out = out[:keep] if tool == "head" else out[-keep:]
        assert "".join(out) == "\n".join(expected) + "\n", prompt
