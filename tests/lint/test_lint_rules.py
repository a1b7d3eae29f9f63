"""Per-rule fixture tests: each rule has a flagged, a clean, and a
suppressed fixture, and the flagged fixture trips exactly its own rule.

Fixtures use the ``.pytxt`` extension so a directory-level
``python -m repro.lint src tests`` run never lints them; the engine only
picks up explicitly named files regardless of extension, which is how
these tests feed them in.

DET004 needs two files to fire, so its fixtures are linted through
``lint_paths`` beside a second protocol module instead of through the
single-file pattern.
"""

import pathlib

import pytest

from repro.lint import all_rules, lint_paths, lint_source

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: Fake path used when linting fixtures, so path-scoped rules (DET001
#: skips telemetry, PROTO002 skips tests) treat them as protocol code.
SRC_LIKE = "src/repro/core/fixture.py"

RULES = [
    "DET001",
    "DET002",
    "DET003",
    "PERF001",
    "PROTO001",
    "PROTO002",
    "PROTO004",
    "API001",
]

#: Findings expected from each rule's flagged fixture.
EXPECTED_COUNTS = {
    "DET001": 2,  # time.time() + bare perf_counter()
    "DET002": 4,  # random.shuffle + np.random.random + bare default_rng() + random.Random()
    "DET003": 3,  # for over set param, .keys() comp, list(a - b) comp
    "PERF001": 3,  # unguarded f-string, dict literal, list comprehension
    "PROTO001": 4,  # Unregistered: 1 aspect; Bare: all 3 aspects
    "PROTO002": 2,  # typo'd emit kind + typo'd span kind
    "PROTO004": 2,  # hard-coded body_bytes on a payload and on a plain class
    "API001": 3,  # two mutable defaults + one float-time equality
}


def lint_fixture(name: str, rules=None) -> list:
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(source, path=SRC_LIKE, rules=rules)


def rules_named(*ids):
    return [r for r in all_rules() if r.id in ids]


@pytest.mark.parametrize("rule_id", RULES)
def test_flagged_fixture_trips_exactly_its_rule(rule_id):
    findings = lint_fixture(f"{rule_id.lower()}_flagged.pytxt")
    assert findings, f"{rule_id} flagged fixture produced no findings"
    assert {f.rule for f in findings} == {rule_id}
    assert len(findings) == EXPECTED_COUNTS[rule_id]


@pytest.mark.parametrize("rule_id", RULES)
def test_clean_fixture_is_clean(rule_id):
    findings = lint_fixture(f"{rule_id.lower()}_clean.pytxt")
    assert findings == []


@pytest.mark.parametrize("rule_id", RULES)
def test_suppressed_fixture_is_silent(rule_id):
    findings = lint_fixture(f"{rule_id.lower()}_suppressed.pytxt")
    assert findings == []


def test_det001_exempts_telemetry_paths():
    source = (FIXTURES / "det001_flagged.pytxt").read_text(encoding="utf-8")
    findings = lint_source(source, path="src/repro/telemetry/fixture.py")
    assert findings == []


def test_proto002_exempts_test_paths():
    source = (FIXTURES / "proto002_flagged.pytxt").read_text(encoding="utf-8")
    findings = lint_source(source, path="tests/core/test_fixture.py")
    assert findings == []


def test_api001_float_equality_exempts_test_paths():
    source = (FIXTURES / "api001_flagged.pytxt").read_text(encoding="utf-8")
    findings = lint_source(source, path="tests/core/test_fixture.py")
    # Mutable defaults stay flagged in tests; only float-time eq is waived.
    assert {f.rule for f in findings} == {"API001"}
    assert len(findings) == EXPECTED_COUNTS["API001"] - 1


def test_det003_uses_cross_file_facts():
    """A set-typed attribute declared in another module is recognised."""
    from repro.lint import ProjectFacts, attach_parents
    import ast

    declaring = ast.parse("class Roles:\n    downstream: set = frozenset()\n")
    attach_parents(declaring)
    facts = ProjectFacts()
    facts.merge_from(declaring, "src/repro/hierarchy/roles.py")

    consuming = "def fanout(state):\n    return [c for c in state.downstream]\n"
    findings = lint_source(consuming, path=SRC_LIKE, facts=facts)
    assert [f.rule for f in findings] == ["DET003"]

    # Without the declaring module's facts there is nothing to flag.
    assert lint_source(consuming, path=SRC_LIKE) == []


def test_det003_sees_unannotated_set_attributes():
    """``self.x = set()`` / ``field(default_factory=set)`` declare a set
    even without an annotation (facts-pass regression)."""
    findings = lint_fixture("det003_unannotated.pytxt")
    assert [f.rule for f in findings] == ["DET003", "DET003"]


# ----------------------------------------------------------------------
# DET004 (two files: the fixture plus a second protocol module)
# ----------------------------------------------------------------------

#: A hierarchy module acquiring the two streams the flagged fixture
#: also acquires.
DET004_OTHER = (
    "def repairs(sim):\n"
    "    return sim.rng.stream('churn'), sim.rng.stream('transport.latency')\n"
)


def lint_det004_fixture(tmp_path, name: str, package: str = "net"):
    """Lint fixture ``name`` as a module of ``package`` beside
    :data:`DET004_OTHER`; returns (fixture findings, other findings)."""
    fixture = tmp_path / "src" / "repro" / package / "fixture.py"
    other = tmp_path / "src" / "repro" / "hierarchy" / "other.py"
    for path, text in (
        (fixture, (FIXTURES / name).read_text(encoding="utf-8")),
        (other, DET004_OTHER),
    ):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    findings = lint_paths([str(fixture), str(other)])
    return (
        [f for f in findings if f.path == str(fixture)],
        [f for f in findings if f.path == str(other)],
    )


def test_det004_flagged_fixture(tmp_path):
    mine, other = lint_det004_fixture(tmp_path, "det004_flagged.pytxt")
    assert [f.rule for f in mine] == ["DET004", "DET004"]
    assert [f.rule for f in other] == ["DET004", "DET004"]
    assert "RNG stream 'churn' is consumed from 2 protocol modules" in mine[0].message
    assert "'transport.latency'" in mine[1].message


def test_det004_clean_fixture(tmp_path):
    assert lint_det004_fixture(tmp_path, "det004_clean.pytxt") == ([], [])


def test_det004_suppressed_fixture(tmp_path):
    mine, other = lint_det004_fixture(tmp_path, "det004_suppressed.pytxt")
    assert mine == []
    # A suppression silences its own file; the other module still reports.
    assert [f.rule for f in other] == ["DET004", "DET004"]


def test_det004_exempts_non_protocol_paths(tmp_path):
    findings = lint_det004_fixture(
        tmp_path, "det004_flagged.pytxt", package="experiments"
    )
    assert findings == ([], [])


def test_det004_shared_stream_across_modules(tmp_path):
    """The same named stream consumed from two protocol modules."""
    net_dir = tmp_path / "src" / "repro" / "net"
    hier_dir = tmp_path / "src" / "repro" / "hierarchy"
    net_dir.mkdir(parents=True)
    hier_dir.mkdir(parents=True)
    (net_dir / "a.py").write_text(
        "def delays(sim):\n    return sim.rng.stream('jitter')\n"
    )
    (hier_dir / "b.py").write_text(
        "def repairs(sim):\n    return sim.rng.stream('jitter')\n"
    )
    findings = lint_paths(
        [str(net_dir / "a.py"), str(hier_dir / "b.py")],
        rules=rules_named("DET004"),
    )
    assert [f.rule for f in findings] == ["DET004", "DET004"]
    assert all("'jitter'" in f.message for f in findings)
    # Each acquisition site is reported once, in its own module.
    assert {f.path for f in findings} == {
        str(net_dir / "a.py"),
        str(hier_dir / "b.py"),
    }


def test_rng_stream_table():
    """Literal ``<...>rng.stream(name)`` calls in protocol files only."""
    from repro.lint import ProjectFacts
    import ast

    tree = ast.parse(
        "class Transport:\n"
        "    def __init__(self, sim):\n"
        "        self._loss = sim.rng.stream('transport.loss')\n"
        "        self._latency = sim.rng.stream('transport.latency')\n"
        "        self._dynamic = sim.rng.stream(f'peer.{sim.me}')\n"
        "        self._other = sim.streams.stream('not.an.rng')\n"
    )
    facts = ProjectFacts()
    facts.merge_from(tree, SRC_LIKE)
    facts.merge_from(tree, "src/repro/experiments/harness.py")
    assert facts.rng_streams == {
        "transport.loss": {SRC_LIKE},
        "transport.latency": {SRC_LIKE},
    }


# ----------------------------------------------------------------------
# PERF002 (path-scoped to the vectorized tier, so it gets its own section)
# ----------------------------------------------------------------------

VEC_LIKE = "src/repro/vec/fixture.py"


def lint_vec_fixture(name: str) -> list:
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(source, path=VEC_LIKE)


def test_perf002_flagged_fixture():
    findings = lint_vec_fixture("perf002_flagged.pytxt")
    assert {f.rule for f in findings} == {"PERF002"}
    # Loop over an array name, range(len(array)), loop over an np call.
    assert len(findings) == 3


def test_perf002_clean_fixture():
    assert lint_vec_fixture("perf002_clean.pytxt") == []


def test_perf002_suppressed_fixture():
    assert lint_vec_fixture("perf002_suppressed.pytxt") == []


def test_perf002_only_applies_to_vec_paths():
    source = (FIXTURES / "perf002_flagged.pytxt").read_text(encoding="utf-8")
    assert lint_source(source, path=SRC_LIKE) == []
    assert lint_source(source, path="tests/vec/test_fixture.py") == []


def test_perf002_vec_package_itself_is_clean():
    """The shipped vectorized tier must satisfy its own rule (the one
    escape-boundary loop carries an explicit disable)."""
    import glob

    paths = sorted(glob.glob("src/repro/vec/*.py"))
    assert paths, "vec package not found (test must run from the repo root)"
    findings = [f for f in lint_paths(paths) if f.rule == "PERF002"]
    assert findings == []
