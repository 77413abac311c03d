"""The documentation front door stays truthful.

Three families: every markdown link in README/docs resolves (the same
check CI's link-check job runs), the README documents every CLI flag
the simulator exposes, and every experiment id in the bench registry is
mapped in the README's reproduction tables.
"""

import os
import re
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

from check_links import check_links, markdown_files, slugify  # noqa: E402


def _read_readme() -> str:
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as f:
        return f.read()


def test_docs_exist():
    assert os.path.exists(os.path.join(REPO_ROOT, "README.md"))
    assert os.path.exists(os.path.join(REPO_ROOT, "docs", "architecture.md"))
    assert os.path.exists(os.path.join(REPO_ROOT, "docs", "determinism.md"))


def test_markdown_links_resolve():
    files = markdown_files(REPO_ROOT)
    assert len(files) >= 3  # README + the two docs pages
    errors = check_links(REPO_ROOT)
    assert not errors, "\n".join(errors)


def test_slugify_matches_github_style():
    assert slugify("Performance ledger (`BENCHMARK.json`)") == (
        "performance-ledger-benchmarkjson"
    )
    assert slugify("## Install") == "install"


def test_readme_documents_every_cli_flag():
    """The full CLI table: every flag the sim parser exposes appears in
    the README (and vice versa nothing phantom is documented)."""
    from repro.sim.__main__ import build_parser

    readme = _read_readme()
    flags = {
        option
        for action in build_parser()._actions
        for option in action.option_strings
        if option.startswith("--")
    }
    flags.discard("--help")  # argparse built-in
    missing = {flag for flag in flags if f"`{flag}" not in readme}
    assert not missing, f"CLI flags undocumented in README: {sorted(missing)}"
    rows = set(re.findall(r"^\| `(--[a-z][a-z0-9-]*)", readme, re.MULTILINE))
    phantom = rows - flags
    assert not phantom, f"README documents non-existent flags: {sorted(phantom)}"


def test_readme_documents_every_simulation_config_field():
    """Every SimulationConfig field is named in the README — either in
    the CLI table or in the library-only list (and vice versa every
    field a flag row names is real)."""
    from repro.sim.config import SimulationConfig

    readme = _read_readme()
    all_fields = set(SimulationConfig.__dataclass_fields__)
    fields = all_fields - {"seed"}  # documented as --seed
    missing = {
        field
        for field in fields
        if f"`{field}`" not in readme and f"({field})" not in readme
    }
    assert not missing, f"config fields undocumented in README: {sorted(missing)}"
    rows = re.findall(r"^\| `--.*$", readme, re.MULTILINE)
    named = {name for row in rows for name in re.findall(r"\(`(\w+)`", row)}
    phantom = named - all_fields
    assert not phantom, f"README flag rows name non-existent fields: {sorted(phantom)}"


def test_readme_maps_every_experiment_id():
    from repro.bench.experiments import ALL_EXPERIMENTS

    readme = _read_readme()
    missing = {
        exp_id for exp_id in ALL_EXPERIMENTS if f"`{exp_id}`" not in readme
    }
    assert not missing, f"experiment ids unmapped in README: {sorted(missing)}"


def test_readme_names_every_bench_json():
    """One ledger: the README points at the benchmark declaration, its
    driver and the comparison mode."""
    readme = _read_readme()
    for name in ("BENCHMARK.json", "benchmarks/e2e/run.py", "run.py compare"):
        assert name in readme, f"{name} not described in README"


def test_source_names_only_existing_markdown_files():
    """Docstrings and comments under src/ cite only markdown files that
    exist (paths relative to the repository root, e.g. ``README.md`` or
    ``docs/determinism.md``)."""
    cited = re.compile(r"(?<![\w/.-])((?:[\w-]+/)*[\w-]+\.md)\b")
    missing = []
    for folder, _, names in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in names:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    for match in cited.finditer(line):
                        if not os.path.exists(os.path.join(REPO_ROOT, match.group(1))):
                            rel = os.path.relpath(path, REPO_ROOT)
                            missing.append(f"{rel}:{lineno} {match.group(1)}")
    assert not missing, "src/ cites missing markdown files:\n" + "\n".join(missing)


def test_determinism_contracts_point_at_real_tests():
    """Every test path named in docs/determinism.md exists."""
    path = os.path.join(REPO_ROOT, "docs", "determinism.md")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    for match in re.finditer(r"`(tests/[\w/]+\.py)`", text):
        assert os.path.exists(
            os.path.join(REPO_ROOT, match.group(1))
        ), f"determinism.md references missing {match.group(1)}"
