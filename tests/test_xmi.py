"""Tests for XMI serialization: element coverage and round-trip fidelity."""

import pytest

import repro.metamodel as mm
from repro import activities as ac
from repro import interactions as ixn
from repro import statemachines as st
from repro import xmi
from repro.errors import XmiError
from repro.profiles import (
    apply_stereotype,
    create_soc_profile,
    has_stereotype,
    tagged_value,
)


def build_full_model():
    """A model touching every serializable element family."""
    prof = create_soc_profile()
    model = mm.Model("soc")
    pkg = model.create_package("top")

    iface = pkg.add(mm.Interface("IBus"))
    read = iface.add_operation("read", mm.INTEGER)
    read.add_parameter("addr", mm.INTEGER)

    cpu = pkg.add(mm.Component("Cpu"))
    cpu.realize(iface)
    ctrl = cpu.add_attribute("ctrl", mm.INTEGER, default=5)
    apply_stereotype(cpu, prof.stereotype("Processor"), isa="rv64gc")
    apply_stereotype(ctrl, prof.stereotype("Register"), address=0)
    step = cpu.add_operation("step", mm.INTEGER)
    step.set_body("return ctrl + 1;")
    port = cpu.add_port("bus", direction=mm.PortDirection.OUT)
    port.provide(iface)

    mem = pkg.add(mm.Component("Mem"))
    sport = mem.add_port("s", direction=mm.PortDirection.IN)
    sport.require(iface)

    top = pkg.add(mm.Component("Top"))
    part_cpu = top.add_part("cpu", cpu)
    part_mem = top.add_part("mem", mem)
    top.connect(port, sport, part_cpu, part_mem)

    assoc = mm.associate(cpu, mem, target_multiplicity=mm.MANY)
    pkg.add(assoc)

    enum = pkg.add(mm.Enumeration("Mode", ("FAST", "SLOW")))

    inst = pkg.add(mm.InstanceSpecification("cpu0", cpu))
    inst.set_slot("ctrl", 7)

    machine = st.StateMachine("fsm")
    region = machine.region
    init = region.add_initial()
    idle = region.add_state("Idle", entry="x = 1;")
    run = region.add_state("Run")
    run.defer("irq")
    region.add_transition(init, idle)
    region.add_transition(idle, run, trigger="go", guard="x > 0",
                          effect="x = x + 1;")
    region.add_transition(run, idle, after=4.0)
    cpu.add_behavior(machine, as_classifier_behavior=True)

    activity = ac.Activity("boot")
    a_init = activity.add_initial()
    act = activity.add_action("load", "done = true;")
    out_pin = act.add_output_pin("out")
    a_final = activity.add_final()
    activity.chain(a_init, act, a_final)
    cpu.add_behavior(activity)

    interaction = pkg.add(ixn.Interaction("handshake"))
    l1 = interaction.add_lifeline("cpu", cpu)
    l2 = interaction.add_lifeline("mem", mem)
    interaction.message("req", l1, l2)
    alt = interaction.alt()
    ok = alt.add_operand("ok")
    ok.add(ixn.Message("ack", l2, l1))

    actor = pkg.add(mm.Actor("User"))
    case = pkg.add(mm.UseCase("Boot"))
    case.add_actor(actor)
    case.add_subject(top)

    node = pkg.add(mm.Node("board"))
    artifact = pkg.add(mm.Artifact("fw", file_name="fw.bin"))
    artifact.manifest(cpu)
    node.deploy(artifact)

    return model, prof


class TestRoundTrip:
    def test_summary_preserved(self):
        model, prof = build_full_model()
        text = xmi.write_model(model, profiles=[prof])
        document = xmi.read_model(text)
        assert document.model.summary() == model.summary()
        assert len(document.profiles) == 1

    def test_ids_preserved(self):
        model, prof = build_full_model()
        document = xmi.read_model(xmi.write_model(model, [prof]))
        original_ids = {e.xmi_id for e in model.all_owned()}
        restored_ids = {e.xmi_id for e in document.model.all_owned()}
        assert original_ids == restored_ids

    def test_double_round_trip_stable(self):
        model, prof = build_full_model()
        once = xmi.write_model(model, [prof])
        document = xmi.read_model(once)
        twice = xmi.write_model(document.model, document.profiles)
        assert once == twice

    def test_stereotypes_survive(self):
        model, prof = build_full_model()
        document = xmi.read_model(xmi.write_model(model, [prof]))
        cpu = document.model.resolve("top::Cpu", mm.Component)
        assert has_stereotype(cpu, "Processor")
        assert tagged_value(cpu, "Processor", "isa") == "rv64gc"
        assert tagged_value(cpu.member("ctrl"), "Register", "address") == 0

    def test_behaviors_remain_executable(self):
        model, prof = build_full_model()
        document = xmi.read_model(xmi.write_model(model, [prof]))
        cpu = document.model.resolve("top::Cpu", mm.Component)
        machine = cpu.classifier_behavior
        runtime = st.StateMachineRuntime(machine).start()
        runtime.send("go")
        assert runtime.active_leaf_names() == ("Run",)
        assert runtime.context["x"] == 2
        runtime.advance_time(4.0)
        assert runtime.active_leaf_names() == ("Idle",)

    def test_activity_remains_executable(self):
        model, prof = build_full_model()
        document = xmi.read_model(xmi.write_model(model, [prof]))
        cpu = document.model.resolve("top::Cpu", mm.Component)
        activity = cpu.owned_of_type(ac.Activity)[0]
        engine = ac.TokenEngine(activity)
        engine.run()
        assert engine.finished and engine.env["done"] is True

    def test_interaction_traces_preserved(self):
        from repro.interactions import traces

        model, prof = build_full_model()
        document = xmi.read_model(xmi.write_model(model, [prof]))
        interaction = document.model.resolve("top::handshake",
                                             ixn.Interaction)
        assert traces(interaction) == [("cpu->mem:req", "mem->cpu:ack")]

    def test_operation_body_and_defaults(self):
        model, prof = build_full_model()
        document = xmi.read_model(xmi.write_model(model, [prof]))
        cpu = document.model.resolve("top::Cpu", mm.Component)
        assert cpu.member("step", mm.Operation).body == "return ctrl + 1;"
        assert cpu.member("ctrl", mm.Property).default_value == 5

    def test_connector_and_parts_restored(self):
        model, prof = build_full_model()
        document = xmi.read_model(xmi.write_model(model, [prof]))
        top = document.model.resolve("top::Top", mm.Component)
        assert len(top.parts) == 2
        connector = top.connectors[0]
        assert connector.ends[0].port.name == "bus"
        assert connector.ends[0].part.name == "cpu"

    def test_builtin_primitive_identity(self):
        model, prof = build_full_model()
        document = xmi.read_model(xmi.write_model(model, [prof]))
        cpu = document.model.resolve("top::Cpu", mm.Component)
        assert cpu.member("ctrl", mm.Property).type is mm.INTEGER

    def test_association_rewired(self):
        model, prof = build_full_model()
        document = xmi.read_model(xmi.write_model(model, [prof]))
        assoc = next(document.model.elements_of_type(mm.Association))
        assert assoc.member_ends[0].association is assoc
        assert str(assoc.member_ends[0].multiplicity) == "*"

    def test_deployment_restored(self):
        model, prof = build_full_model()
        document = xmi.read_model(xmi.write_model(model, [prof]))
        node = document.model.resolve("top::board", mm.Node)
        assert node.deployed_artifacts[0].file_name == "fw.bin"


class TestIdsAfterLoad:
    """XMI import keeps a file's ids, so the id counter must move past
    them; else an element created after the load reuses one."""

    def test_elements_created_after_a_load_get_fresh_ids(self):
        import repro

        model = mm.Model("m")
        component = model.add(mm.Component("C"))
        component.add_port("p")
        text = xmi.write_model(model)
        assert 'xmi:id="Port_3"' in text

        repro.reset_ids(1)  # stands in for a fresh process
        document = xmi.read_model(text)
        loaded = document.model.resolve("C", mm.Component)
        for name in ("q", "r", "s"):
            loaded.add_port(name)
        ids = [element.xmi_id for element in
               [document.model, *document.model.all_owned()]]
        assert len(ids) == len(set(ids))
        assert xmi.read_model(xmi.write_model(document.model)) \
            .model.summary() == document.model.summary()

    def test_only_numeric_suffixes_move_the_counter(self):
        from repro._ids import next_id, reserve_ids

        reserve_ids(["Port_x", "builtin:Integer", "Class_9", "a_b_12",
                     "Huge_" + "9" * 40])
        assert next_id("Port") == "Port_13"


class TestErrors:
    def test_callable_action_rejected(self):
        model = mm.Model("m")
        machine = st.StateMachine("f")
        region = machine.region
        init = region.add_initial()
        state = region.add_state("S", entry=lambda ctx, ev: None)
        region.add_transition(init, state)
        cls = mm.UmlClass("C")
        cls.add_behavior(machine)
        model.add(cls)
        with pytest.raises(XmiError):
            xmi.write_model(model)

    def test_malformed_document(self):
        with pytest.raises(XmiError):
            xmi.read_model("not xml at all <")

    def test_wrong_root_tag(self):
        with pytest.raises(XmiError):
            xmi.read_model("<wrong/>")

    def test_dangling_reference(self):
        model = mm.Model("m")
        cls = model.add(mm.UmlClass("C"))
        text = xmi.write_model(model)
        broken = text.replace(f'xmi:id="{cls.xmi_id}"',
                              'xmi:id="Other_99"')
        # the model still parses (no refs to C); now break a real ref
        iface = model.add(mm.Interface("I"))
        cls.realize(iface)
        text = xmi.write_model(model)
        broken = text.replace(f'contract="{iface.xmi_id}"',
                              'contract="Ghost_1"')
        with pytest.raises(XmiError):
            xmi.read_model(broken)

    def test_an_association_end_must_be_a_property(self):
        # the fixup writes the association into each end: a builtin
        # end would plant it in the process-wide primitive type
        text = (f'<xmi:XMI xmlns:xmi="{xmi.XMI_NS}" version="2.1">'
                f'<element xmi:type="Model" xmi:id="Model_1" name="m">'
                f'<element xmi:type="Association" xmi:id="Association_2" '
                f'name="a" member_ends="builtin:Integer builtin:Boolean"/>'
                f'</element></xmi:XMI>')
        with pytest.raises(XmiError) as excinfo:
            xmi.read_model(text)
        assert "Association_2" in str(excinfo.value)
        assert "association" not in mm.INTEGER.__dict__

    def test_file_round_trip(self, tmp_path):
        model, prof = build_full_model()
        path = tmp_path / "model.xmi"
        xmi.write_file(str(path), model, [prof])
        document = xmi.read_file(str(path))
        assert document.model.summary() == model.summary()


class TestDeepNesting:
    """The reader builds the tree with an explicit stack, and
    ``all_owned`` and the writer walk it with one, so nesting depth is
    bounded by memory, not by the interpreter's recursion limit."""

    DEPTH = 3000

    def deep_chain_text(self):
        opening = "".join(
            f'<element xmi:type="Package" xmi:id="Package_{n}" '
            f'name="p{n}">' for n in range(1, self.DEPTH + 1))
        return (f'<xmi:XMI xmlns:xmi="{xmi.XMI_NS}" version="2.1">'
                f'<element xmi:type="Model" xmi:id="Model_0" name="deep">'
                f'{opening}{"</element>" * self.DEPTH}</element>'
                f'</xmi:XMI>')

    def test_a_chain_of_nested_packages_reads(self):
        document = xmi.read_model(self.deep_chain_text())
        model = document.model
        chain = list(model.all_owned())
        assert [package.name for package in chain] == \
            [f"p{n}" for n in range(1, self.DEPTH + 1)]
        assert all(package.owner is owner
                   for owner, package in zip([model] + chain, chain))
        assert chain[-1].root() is model
        assert len(document.elements_by_id) == self.DEPTH + 1
        assert mm.model_fingerprint(model) == \
            mm.model_fingerprint(xmi.read_model(
                self.deep_chain_text()).model)

    @pytest.mark.parametrize("pretty", [False, True],
                             ids=["compact", "pretty"])
    def test_a_chain_of_nested_packages_writes_back(self, pretty):
        # the writer walks with an explicit stack too
        model = xmi.read_model(self.deep_chain_text()).model
        text = xmi.write_model(model, pretty=pretty)
        assert mm.model_fingerprint(xmi.read_model(text).model) == \
            mm.model_fingerprint(model)

    def test_an_edit_deep_in_the_chain_changes_the_fingerprint(self):
        model = xmi.read_model(self.deep_chain_text()).model
        before = mm.model_fingerprint(model)
        deepest = list(model.all_owned())[-1]
        deepest.name = "edited"
        assert mm.model_fingerprint(model) != before
