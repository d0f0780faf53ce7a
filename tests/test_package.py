"""Package-wide checks: every public function has a caller outside the
tests, every private definition one in the package, every record field a
reader there, every config field is set by a bundled table or the
benchmark, the package imports nothing beyond the standard library and
numpy, the benchmark's tracer finds every function it wraps, the
benchmark's tables are valid configs, the package leaves no reference
cycle behind, and the README's python examples run as written."""

import ast
import dataclasses
import gc
import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

import oracles
from satsched import cli, csi_bounds, csi_sched, errors
from satsched.channel import CsiRealization
from satsched.harness import SCENARIOS, ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "satsched"


def _public_defs(tree):
    """Public top-level functions and the public methods of public classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from (item for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def _references(tree):
    """(name, node) for each Name, Attribute and string constant; the
    benchmark's tracer names the functions it wraps in strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node


def _trees():
    return {path: ast.parse(path.read_text())
            for path in [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]}


def _uncalled(trees, refs):
    """'module.function' of each public function in src/ that no (name,
    node) in refs outside its own body names, console scripts apart."""
    scripts = set(re.findall(r'"satsched\.(\w+):(\w+)"', (ROOT / "pyproject.toml").read_text()))
    assert ("cli", "main") in scripts
    uncalled = []
    for path in sorted(SRC.glob("*.py")):
        for fn in _public_defs(trees[path]):
            own = {id(node) for node in ast.walk(fn)}
            if (path.stem, fn.name) not in scripts and not any(
                    name == fn.name and id(node) not in own for name, node in refs):
                uncalled.append(f"{path.stem}.{fn.name}")
    return uncalled


def test_every_public_function_has_a_caller():
    # a function only the tests call is API kept alive for the tests alone;
    # an `__init__` re-export is an import, not a reference, so it does not count
    trees = _trees()
    refs = [ref for tree in trees.values() for ref in _references(tree)]
    uncalled = _uncalled(trees, refs)
    assert not uncalled, f"public functions nothing in src/ or perfbench/ calls: {uncalled}"


def _private_defs(tree):
    """(name, node) of each private top-level function, class and constant,
    dunders apart."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def test_every_private_definition_has_a_caller_in_src():
    # a private helper or constant that only the tests or the benchmark read
    # is code kept alive for them alone; its own body and assignment do not count
    trees = {path: tree for path, tree in _trees().items() if path.parent == SRC}
    refs = [ref for tree in trees.values() for ref in _references(tree)]
    unused = []
    for path, tree in sorted(trees.items()):
        for name, definition in _private_defs(tree):
            own = {id(node) for node in ast.walk(definition)}
            if not any(ref == name and id(node) not in own for ref, node in refs):
                unused.append(f"{path.stem}.{name}")
    assert not unused, f"private definitions nothing else in src/ reads: {unused}"


def test_no_new_function_lives_on_tracer_strings_alone():
    # a public function that only the tracer's SPANNED and COUNTED strings
    # name is kept for the benchmark's counters alone; these five wait for a
    # tracer that spans live code, and the list may only shrink
    trees = _trees()
    tracer = trees[ROOT / "perfbench" / "tracer.py"]
    strings = {id(node) for node in ast.walk(tracer)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    refs = [(name, node) for tree in trees.values() for name, node in _references(tree)
            if id(node) not in strings]
    assert sorted(_uncalled(trees, refs)) == [
        "cdi_sched.h_function",
        "channel.sample_sr_snr",
        "csi_bounds.feasibility_check",
        "rate_core.evaluate_schedule",
        "rate_core.throughput_power_split",
    ]


# record fields only README and the tests read; the list may only shrink.
# ROADMAP item 6's --metrics sidecar would emit the three standard errors,
# and it or a slimmer record settles the other two
_FIELDS_WITHOUT_A_READER = [
    "McStats.p1_std_error",
    "McStats.p2_std_error",
    "McStats.std_error",
    "OutageReport.p1",
    "Theorem3Solution.lambda_opt",
]


def test_every_record_field_has_a_reader():
    # a field that nothing in src/ or perfbench/ reads is computed and
    # carried for the tests alone.  A read is an attribute load of the
    # field's name, or dataclasses.fields() of the class, which reads them all
    trees = _trees()
    loads = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    read_whole = {arg.id for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "fields"
                  for arg in node.args if isinstance(arg, ast.Name)}
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for cls in trees[path].body:
            if (isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                    and cls.name not in read_whole):
                unread += [f"{cls.name}.{item.target.id}" for item in cls.body
                           if isinstance(item, ast.AnnAssign) and item.target.id not in loads]
    assert sorted(unread) == _FIELDS_WITHOUT_A_READER


def test_every_config_field_is_set_by_a_table_or_the_benchmark():
    # a field no bundled config and no benchmark table sets is a knob kept for nobody
    keys = {key for path in (SRC / "configs").glob("*.json")
            for key in json.loads(path.read_text())}
    workloads = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    keys |= {node.value for node in ast.walk(workloads)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unset = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in keys]
    assert not unset, f"config fields no table or benchmark sets: {unset}"


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "satsched"}
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # not an import, or a relative one, which names the package
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert not foreign, f"imports outside the standard library and numpy: {foreign}"


def _unchecked_schedules(tree):
    """Each call X.__new__(Schedule, ...) in tree: a Schedule built without
    its constructor's checks."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__new__" and node.args
                and "Schedule" in (getattr(node.args[0], "id", None),
                                   getattr(node.args[0], "attr", None))):
            yield node


def test_only_rate_core_builds_a_schedule_without_its_constructor():
    # the CSI finishing pass skips the checks for users it knows are valid;
    # a second unchecked route could store what no check has seen
    paths = [*_trees(), *(ROOT / "tests").glob("*.py")]
    found = {path.relative_to(ROOT).as_posix(): len(list(_unchecked_schedules(
        ast.parse(path.read_text())))) for path in paths}
    assert {path: n for path, n in found.items() if n} == {"src/satsched/rate_core.py": 1}
    for source in ("s = object.__new__(Schedule)", "s = object.__new__(rate_core.Schedule)",
                   "s = Schedule.__new__(Schedule)"):
        assert len(list(_unchecked_schedules(ast.parse(source)))) == 1, source


def test_benchmark_tracer_finds_every_traced_function():
    # Tracer() looks up each SPANNED and COUNTED name and fails on a missing one
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wrapped = tracer.Tracer()._wrappers
    assert len(wrapped) == len(tracer.SPANNED) + len(tracer.COUNTED)


def test_benchmark_tables_are_valid_configs(tmp_path, monkeypatch):
    # a table that stopped accepting a key the benchmark sends would fail
    # every operation of its workload with exit 2; workloads.py is only read
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    # a scenario's position is part of every trial_rng key
    assert SCENARIOS == ("csi_sumrate", "csi_complexity", "csi_stability",
                         "cdi_convergence", "cdi_outage", "cdi_complexity")
    assert {scenario for scenario, _ in cli._SUBCOMMANDS.values()} >= set(SCENARIOS)
    figures = workloads.FigureWorkload(list(workloads.TABLES), workloads.DEFAULT_SEED, tmp_path)
    calls = figures.prepare(0)
    assert len(calls) == len(workloads.TABLES)
    for name, config, argv, _ in calls:
        assert config["trials"] == workloads.TABLES[name][1]
        assert cli._SUBCOMMANDS[argv[0]][0] == config["scenario"], name
        assert ExperimentConfig.from_dict(config).scenario == config["scenario"]


def test_no_path_leaves_a_reference_cycle():
    # reference counting frees garbage the moment it drops, but a cycle
    # waits for the cyclic collector, whose collections then fire inside
    # whichever later call allocates.  With the collector off, every bundled
    # table, each CSI scheduler on the benchmark's online frames, and gius
    # on the tied stall instance of test_csi_sched.py must leave nothing
    configs = [json.loads(path.read_text()) for path in sorted((SRC / "configs").glob("*.json"))]
    frames = oracles.csi_online_frames(64, 1)
    stall = CsiRealization(np.array([1, 8, 6, 9, 5, 5, 1, 1, 0, 11, 4, 3, 10, 2, 5, 10, 1, 6,
                                     5, 2, 3, 9, 10, 9, 11, 6, 9], dtype=float), float(2**60))
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for raw in configs:
            run_experiment(ExperimentConfig.from_dict({**raw, "trials": 2}))
        for r, csi in frames:
            k = csi_sched.determine_k(csi, r)
            csi_sched.gius(csi, k, r)
            csi_sched.lbus(csi, k, r)
            csi_sched.baseline_tdma(csi, k, r)
            csi_sched.baseline_opportunistic(csi, r)
            csi_bounds.sum_rate_bounds(csi, k, r)
            if math.comb(csi.n_users, k) <= errors._MAX_SUBSETS:
                csi_sched.exhaustive(csi, k, r)
        csi_sched.gius(stall, 14, 0.3)
        left = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert left == 0, f"{left} objects were left for the cyclic collector"


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
