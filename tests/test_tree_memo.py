"""The one memo of values derived from a model tree.

:meth:`repro.metamodel.Element.memo` keeps each element's fingerprint
and each machine's walk, validation verdict and compiled tables against
the identity and generation of the tree's root.  Here: the two
fingerprints that need both in the key (a package's, after an edit
inside it, and a moved class's, at a generation its old tree reached
too), and a Hypothesis search over random edit sequences (renames, new
vertices and transitions, guard and effect edits, moves of a class
between packages and between models), after each step of which every
memoized value must equal a fresh computation.  A model holding
memoized values still pickles and deep-copies.
"""

import copy
import pickle

from hypothesis import given, settings, strategies as st

import repro.metamodel as mm
from repro.errors import StateMachineError
from repro.metamodel import Model, element_fingerprint, model_fingerprint
from repro.metamodel.model import _subtree_digest
from repro.statemachines import (
    PseudostateKind,
    Region,
    State,
    StateMachine,
    Transition,
    Vertex,
    compile_fallback_reason,
    compile_machine,
    compile_machine_cached,
)
from repro.statemachines.compiled import NotCompilable


class TestStaleFingerprints:
    def test_a_package_fingerprint_follows_an_edit_inside_it(self):
        model = Model("m")
        package = model.create_package("pkg")
        cls = package.add(mm.UmlClass("A"))
        before = model_fingerprint(package)
        cls.name = "B"  # bumps the model's generation, not the package's
        assert model_fingerprint(package) != before
        assert model_fingerprint(package) == _subtree_digest(package)

    def test_a_moved_class_fingerprints_fresh_at_the_same_generation(self):
        model = Model("m")
        package = model.create_package("pkg")
        cls = package.add(mm.UmlClass("A"))
        while model.generation <= cls.generation + 1:
            model.name = "m"
        generation = model.generation
        before = element_fingerprint(cls)
        package._disown(cls)
        while cls.generation < generation:  # one bump per write
            cls.name = "B"
        assert cls.generation == generation
        assert element_fingerprint(cls) != before
        assert element_fingerprint(cls) == _subtree_digest(cls)


# -- random edit sequences --------------------------------------------------

GUARDS = (None, "x > 1", "x == 2", "x >")
EFFECTS = (None, "x = x + 1;", "x = 0;", "x = ;")
VERTEX_KINDS = ("state", "state", PseudostateKind.FORK, PseudostateKind.JOIN)

INDEX = st.integers(min_value=0, max_value=99)
STEPS = st.lists(st.one_of(
    st.tuples(st.just("rename"), INDEX),
    st.tuples(st.just("vertex"), INDEX, st.sampled_from(VERTEX_KINDS)),
    st.tuples(st.just("transition"), INDEX, INDEX, INDEX,
              st.sampled_from((None, "Go", "Stop"))),
    st.tuples(st.just("guard"), INDEX, st.sampled_from(GUARDS)),
    st.tuples(st.just("effect"), INDEX, st.sampled_from(EFFECTS)),
    st.tuples(st.just("move"), INDEX, INDEX),
), max_size=12)


def build_world():
    """Two models, three packages, three classes, each class with a
    flat state machine as its classifier behaviour."""
    models = (Model("left"), Model("right"))
    packages = (models[0].create_package("p0"),
                models[0].create_package("p1"),
                models[1].create_package("p2"))
    for number, package in enumerate(packages):
        cls = package.add(mm.UmlClass(f"C{number}"))
        cls.add_attribute("x", mm.INTEGER, default=0)
        machine = StateMachine(f"M{number}")
        region = machine.region
        idle = region.add_state("Idle")
        region.add_transition(region.add_initial(), idle)
        region.add_transition(idle, idle, trigger="Go", effect="x = 1;")
        cls.add_behavior(machine, as_classifier_behavior=True)
    return models, packages


def pick(sequence, index):
    return sequence[index % len(sequence)]


def apply_step(step, number, models, packages):
    everything = [e for model in models for e in model.all_owned()]
    machines = [e for e in everything if isinstance(e, StateMachine)]
    transitions = [e for e in everything if isinstance(e, Transition)]
    kind = step[0]
    if kind == "rename":
        named = [e for e in everything
                 if isinstance(e, (mm.Package, mm.UmlClass, State))]
        pick(named, step[1]).name = f"n{number}"
    elif kind == "vertex":
        region = pick(machines, step[1]).regions[0]
        if step[2] == "state":
            region.add_state(f"s{number}")
        else:
            region.add_pseudostate(step[2], f"v{number}")
    elif kind == "transition":
        machine = pick(machines, step[1])
        vertices = machine.all_vertices()
        machine.regions[0].add_transition(
            pick(vertices, step[2]), pick(vertices, step[3]),
            trigger=step[4])
    elif kind in ("guard", "effect"):
        setattr(pick(transitions, step[1]), kind, step[2])
    elif kind == "move":
        classes = [e for e in everything if isinstance(e, mm.UmlClass)]
        cls, package = pick(classes, step[1]), pick(packages, step[2])
        if cls.owner is not package:
            cls.owner._disown(cls)
            package.add(cls)


def verdict(check):
    try:
        check()
    except StateMachineError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def fresh_reason(machine):
    try:
        compile_machine(machine)
    except NotCompilable as refusal:
        return str(refusal)
    return None


def assert_machine_fresh(machine):
    owned = list(machine.all_owned())
    transitions = tuple(e for e in owned if isinstance(e, Transition))
    vertices = tuple(e for e in owned if isinstance(e, Vertex))
    walk = machine.walk()
    assert walk.regions == machine.all_regions() == \
        tuple(e for e in owned if isinstance(e, Region))
    assert walk.vertices == machine.all_vertices() == vertices
    assert walk.states == machine.all_states() == \
        tuple(v for v in vertices if isinstance(v, State))
    assert walk.transitions == machine.all_transitions() == transitions
    for vertex in vertices:
        assert vertex.outgoing == \
            tuple(t for t in transitions if t.source is vertex)
        assert vertex.incoming == \
            tuple(t for t in transitions if t.target is vertex)
    assert verdict(machine.validate) == \
        verdict(lambda: StateMachine._check_structure(machine))
    reason = compile_fallback_reason(machine)
    assert reason == fresh_reason(machine)
    if reason is None:
        assert set(compile_machine_cached(machine).states) == \
            set(compile_machine(machine).states)


def assert_memo_fresh(models):
    for model in models:
        assert model_fingerprint(model) == _subtree_digest(model)
        for element in model.all_owned():
            assert element_fingerprint(element) == _subtree_digest(element)
            if isinstance(element, StateMachine):
                assert_machine_fresh(element)


@given(STEPS)
@settings(max_examples=25, deadline=None)
def test_every_memoized_value_equals_a_fresh_one_after_each_edit(steps):
    models, packages = build_world()
    assert_memo_fresh(models)
    for number, step in enumerate(steps):
        apply_step(step, number, models, packages)
        assert_memo_fresh(models)


def test_a_model_holding_memoized_values_pickles_and_copies():
    models, _ = build_world()
    model = models[0]
    for element in model.all_owned():
        element_fingerprint(element)
        if isinstance(element, StateMachine):
            element.validate()
    for twin in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
        assert model_fingerprint(twin) == model_fingerprint(model)
        assert_memo_fresh([twin])
