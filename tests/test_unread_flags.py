"""Every option of a command-line subcommand must be read by its command.

An option the command never reads is a flag that changes nothing: a user
can pass any value and get the same output.  The guard walks the parser's
subcommands, and for each one collects the `args` attributes that its
`func` reads (`args.name` or `getattr(args, "name", ...)`), following the
module's helpers that are passed `args`.  `_manifest` is not followed: it
records whatever seed and tolerance a command has, and recording a flag is
not reading it.
"""

import argparse
import ast
import inspect

from besselprob import cli

RECORDERS = {"_manifest"}


def _leaves(parser, path=()):
    """(subcommand path, parser) for each parser that runs a command."""
    if parser.get_default("func") is not None:
        yield " ".join(path), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, path + (name,))


def _reads(functions: dict, name: str, seen: set) -> set:
    seen.add(name)
    read = set()
    for node in ast.walk(functions[name]):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            read.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            passes_args = any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)
            if node.func.id == "getattr" and passes_args:
                read.add(node.args[1].value)
            elif (passes_args and node.func.id in functions
                    and node.func.id not in RECORDERS | seen):
                read |= _reads(functions, node.func.id, seen)
    return read


def unread_flags(parser, module=cli) -> list:
    """(subcommand, flag) for each option its command never reads."""
    tree = ast.parse(inspect.getsource(module))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    found = []
    for path, sub in _leaves(parser):
        read = _reads(functions, sub.get_default("func").__name__, set())
        found += [(path, a.option_strings[-1]) for a in sub._actions
                  if a.option_strings and a.dest != "help" and a.dest not in read]
    return found


def test_guard_sees_an_unread_flag():
    parser = cli.build_parser()
    leaves = dict(_leaves(parser))
    leaves["verify lommel"].add_argument("--planted", type=float, default=1.0)
    leaves["gammatype exists"].add_argument("--seed", type=int, default=1)
    assert unread_flags(parser) == [("verify lommel", "--planted"),
                                    ("gammatype exists", "--seed")]


def test_every_flag_is_read():
    assert unread_flags(cli.build_parser()) == []
