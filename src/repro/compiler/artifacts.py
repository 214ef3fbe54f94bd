"""Compilation artifacts: what the Hilda compiler produces (Figure 14).

:func:`compile_program` bundles the two outputs of the paper's compiler —
database creation scripts and application-server code — into a
:class:`CompiledApplication` that can be written to disk, imported, and run.
"""

from __future__ import annotations

import importlib.util
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro.compiler.codegen import generate_module
from repro.compiler.ddl_gen import generate_ddl, generate_drop_script
from repro.errors import CompilerError
from repro.hilda.program import HildaProgram, load_program

__all__ = ["CompiledApplication", "compile_program", "compile_source"]


@dataclass
class CompiledApplication:
    """The output of compiling one Hilda program."""

    program: HildaProgram
    ddl_script: str
    drop_script: str
    module_source: str
    module_name: str = "hilda_generated_app"

    # -- files ------------------------------------------------------------------

    def artifact_files(self) -> Dict[str, str]:
        """File name -> contents for every artifact."""
        return {
            "schema.sql": self.ddl_script,
            "drop_schema.sql": self.drop_script,
            f"{self.module_name}.py": self.module_source,
        }

    def write_to(self, directory: Union[str, Path]) -> Dict[str, Path]:
        """Write every artifact into ``directory``; returns the paths written."""
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        written: Dict[str, Path] = {}
        for name, contents in self.artifact_files().items():
            path = target / name
            path.write_text(contents, encoding="utf-8")
            written[name] = path
        return written

    # -- loading --------------------------------------------------------------------

    def load_module(self) -> types.ModuleType:
        """Import the generated servlet module (from its source, in memory)."""
        module = types.ModuleType(self.module_name)
        module.__dict__["__name__"] = self.module_name
        try:
            exec(compile(self.module_source, f"<generated {self.module_name}>", "exec"), module.__dict__)
        except Exception as exc:
            raise CompilerError(f"generated module failed to import: {exc}") from exc
        return module

    def build_application(self, **options):
        """Convenience: import the generated module and build its web application."""
        module = self.load_module()
        return module.build_application(**options)

    def build_engine(self, **options):
        """Convenience: import the generated module and build its engine."""
        module = self.load_module()
        return module.build_engine(**options)

    # -- metrics -----------------------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        """Simple size metrics used by the compiler benchmark (``benchmarks/test_bench_fig14_compiler.py``)."""
        class_definitions = [
            line for line in self.module_source.splitlines() if line.startswith("class ")
        ]
        return {
            "aunits": len(self.program.reachable_aunits()),
            "ddl_statements": self.ddl_script.count("CREATE TABLE"),
            "module_lines": self.module_source.count("\n") + 1,
            # Exclude the shared HildaServlet base class.
            "servlet_classes": len(class_definitions) - 1,
        }


def compile_program(
    program: HildaProgram, module_name: str = "hilda_generated_app"
) -> CompiledApplication:
    """Compile a resolved Hilda program into its artifacts.

    Works for programs from either front end: text-loaded programs embed
    their original source in the generated module, Python-authored ones
    (the :mod:`repro.api` builder) embed an unparsed equivalent (see
    :mod:`repro.hilda.unparse`).
    """
    return CompiledApplication(
        program=program,
        ddl_script=generate_ddl(program),
        drop_script=generate_drop_script(program),
        module_source=generate_module(program),
        module_name=module_name,
    )


def compile_source(
    source: str, root: Optional[str] = None, module_name: str = "hilda_generated_app"
) -> CompiledApplication:
    """Parse, validate and compile a Hilda program from source text."""
    program = load_program(source, root=root)
    return compile_program(program, module_name=module_name)
