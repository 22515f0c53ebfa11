"""Structural validators for generated code.

Without vendor toolchains in the loop, "the generated HDL is valid" is
checked structurally, on the text with its comments and indentation
stripped:

* constructs balance (VHDL ``entity``/``architecture``/``process``/
  ``case``/``if``; Verilog ``module``, ``begin``/``end``, ``case``;
  SystemC braces and parentheses);
* the preamble is there (VHDL ``library ieee``; a Verilog module's
  port list; SystemC's include and ``SC_MODULE``);
* every ``ev_*`` name and ``S_*`` state constant the code uses is
  declared in the file, as a port, signal, reg/wire, localparam, enum
  member or module member;

and (for Python) a real ``compile()``.  Experiment D7 reports the
validity rate these checks produce; the unit tests require 100%.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List

#: Where each HDL declares a name, at the start of a line (indentation
#: is stripped first, so a line that declares nothing fails at once); a
#: match's groups hold names or an enum's member list.  VHDL: an enum
#: type, an entity, ``name :`` (a port, signal or label).  Verilog: a
#: port, reg/wire or localparam, a module, the module a bench
#: instantiates.  SystemC: an enum, the ``SC_MODULE``, a member
#: ``type name;``.
_VHDL_DECLARATION = re.compile(
    r"^(?:type[ \t]+\w+[ \t]+is[ \t]*\(([^)]*)\)"
    r"|entity[ \t]+(\w+)|(?:signal[ \t]+)?(\w+)[ \t]*:(?!=))",
    re.MULTILINE)
_VERILOG_DECLARATION = re.compile(
    r"^(?:(?:input|output|inout|reg|wire|localparam)[ \t]+"
    r"(?:(?:wire|reg|signed)[ \t]+)*(?:\[[^\]\n]*\][ \t]*)?(\w+)"
    r"|module[ \t]+(\w+)|(\w+)[ \t]+\w+[ \t]*\([ \t]*\.)", re.MULTILINE)
_SYSTEMC_DECLARATION = re.compile(
    r"^(?:enum[ \t]+\w+[ \t]*\{([^}]*)\}|SC_MODULE\((\w+)\)"
    r"|\w+(?:<[^;\n]*>)?[ \t]+(\w+)[ \t]*;)", re.MULTILINE)
#: An ``ev_*`` name or ``S_*`` constant (``s_*`` in lowered VHDL) where
#: it starts a name; :func:`_undeclared` drops the matches inside a name
#: or after a ``.`` (a member), which a lookbehind here would find
#: several times slower.
_PREFIXED = re.compile(r"(?:ev|s|S)_\w*")


def _undeclared(code: str, declaration: re.Pattern) -> List[str]:
    """Each ``ev_*`` name or ``S_*`` constant ``code`` uses but never
    declares."""
    declared = {name for groups in declaration.findall(code)
                for group in groups
                for name in group.replace(",", " ").split()}
    used = set()
    for match in _PREFIXED.finditer(code):
        before = code[match.start() - 1] if match.start() else " "
        if not (before.isalnum() or before in "_."):
            used.add(match.group())
    return [f"undeclared {name}" for name in sorted(used - declared)]


def _strip_comments(text: str, line_marker: str) -> str:
    lines = []
    for line in text.splitlines():
        index = line.find(line_marker)
        lines.append((line[:index] if index >= 0 else line).lstrip())
    return "\n".join(lines)


def check_vhdl(text: str) -> List[str]:
    """Structural issues in generated VHDL (empty list = clean)."""
    issues: List[str] = []
    code = _strip_comments(text, "--").lower()
    pairs = [
        (r"\bentity\s+\w+\s+is\b", r"\bend\s+entity\b", "entity"),
        (r"\barchitecture\s+\w+\s+of\b", r"\bend\s+architecture\b",
         "architecture"),
        (r"(?<!end )\bprocess\b", r"\bend\s+process\b", "process"),
        (r"(?<!end )\bcase\b", r"\bend\s+case\b", "case"),
    ]
    for open_pattern, close_pattern, construct in pairs:
        opened = len(re.findall(open_pattern, code))
        closed = len(re.findall(close_pattern, code))
        if opened != closed:
            issues.append(
                f"{construct}: {opened} opened vs {closed} closed")
    if_count = len(re.findall(r"(?<!end )\bif\b", code))
    end_if = len(re.findall(r"\bend\s+if\b", code))
    if if_count != end_if:
        issues.append(f"if: {if_count} opened vs {end_if} closed")
    if "library ieee;" not in code:
        issues.append("missing ieee library clause")
    return issues + _undeclared(code, _VHDL_DECLARATION)


def check_verilog(text: str) -> List[str]:
    """Structural issues in generated Verilog (empty list = clean)."""
    issues: List[str] = []
    code = _strip_comments(text, "//")
    modules = len(re.findall(r"\bmodule\b", code))
    endmodules = len(re.findall(r"\bendmodule\b", code))
    if modules != endmodules:
        issues.append(f"module: {modules} opened vs {endmodules} closed")
    begins = len(re.findall(r"\bbegin\b", code))
    ends = len(re.findall(r"\bend\b(?!case|module|function|task)", code))
    if begins != ends:
        issues.append(f"begin/end: {begins} vs {ends}")
    cases = len(re.findall(r"\bcase\b", code))
    endcases = len(re.findall(r"\bendcase\b", code))
    if cases != endcases:
        issues.append(f"case: {cases} vs {endcases}")
    if modules and not re.search(r"\bmodule\s+\w+\s*\(", code):
        issues.append("module has no port list")
    return issues + _undeclared(code, _VERILOG_DECLARATION)


def check_systemc(text: str) -> List[str]:
    """Structural issues in generated SystemC (empty list = clean)."""
    issues: List[str] = []
    code = _strip_comments(text, "//")
    if code.count("{") != code.count("}"):
        issues.append(
            f"braces: {code.count('{')} open vs {code.count('}')} close")
    if code.count("(") != code.count(")"):
        issues.append("unbalanced parentheses")
    if "SC_MODULE" not in text:
        issues.append("no SC_MODULE declaration")
    if "#include <systemc.h>" not in text:
        issues.append("missing systemc include")
    return issues + _undeclared(code, _SYSTEMC_DECLARATION)


def check_python(text: str) -> List[str]:
    """Generated Python must actually compile."""
    try:
        compile(text, "<generated>", "exec")
        return []
    except SyntaxError as error:
        return [f"syntax error: {error}"]


#: Backend name -> validator, used by the D7 harness.
VALIDATORS: Dict[str, Callable[[str], List[str]]] = {
    "vhdl": check_vhdl,
    "verilog": check_verilog,
    "systemc": check_systemc,
    "python": check_python,
}
