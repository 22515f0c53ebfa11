"""The content-addressed artifact store (PR 8): envelope round-trips,
integrity fall-through on corruption, atomic same-key writer races,
gc/ls/info, the active-store switch, the model registry and
cross-process fingerprint stability."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
import repro.metamodel as mm
import repro.store as store_mod
from repro import xmi
from repro.errors import StoreError
from repro.metamodel import element_fingerprint, model_fingerprint
from repro.perf import PERF
from repro.profiles import create_soc_profile
from repro.profiles.core import apply_stereotype
from repro.statemachines import StateMachine
from repro.store import (
    ENVELOPE_VERSION,
    STORE_ENV,
    ArtifactStore,
    ModelRegistry,
    canonical_json,
    get_active_store,
    set_active_store,
    using_store,
)


@pytest.fixture(autouse=True)
def _isolated_store_state():
    """No test inherits (or leaks) an active store or $REPRO_STORE."""
    os.environ.pop(STORE_ENV, None)
    store_mod._ACTIVE = None
    yield
    os.environ.pop(STORE_ENV, None)
    store_mod._ACTIVE = False  # back to "unresolved" for other suites


def _envelope_path(store, kind, key):
    return store._path(kind, key)


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        payload = {"b": [1, 2], "a": {"nested": True}}
        store.save("compile", "deadbeef", payload,
                   inputs=("fp1", "fp0"), meta={"machine": "m"})
        assert store.load("compile", "deadbeef") == payload

    def test_envelope_is_versioned_sorted_json(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("compile", "cafe", {"x": 1}, inputs=("b", "a"))
        text = _envelope_path(store, "compile", "cafe").read_text()
        envelope = json.loads(text)
        assert envelope["version"] == ENVELOPE_VERSION
        assert envelope["kind"] == "compile"
        assert envelope["key"] == "cafe"
        assert envelope["inputs"] == ["a", "b"]  # sorted on write
        assert list(envelope) == sorted(envelope)  # sorted keys on disk
        # checksum covers the canonical payload encoding
        import hashlib
        digest = hashlib.blake2b(digest_size=16)
        digest.update(canonical_json({"x": 1}).encode("utf-8"))
        assert envelope["checksum"] == digest.hexdigest()

    def test_make_key_deterministic_and_distinct(self):
        assert ArtifactStore.make_key("compile", "fp") \
            == ArtifactStore.make_key("compile", "fp")
        assert ArtifactStore.make_key("compile", "fp") \
            != ArtifactStore.make_key("compile", "fq")
        # the joiner byte keeps ("ab","c") and ("a","bc") apart
        assert ArtifactStore.make_key("ab", "c") \
            != ArtifactStore.make_key("a", "bc")

    def test_invalid_kind_and_key_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for bad in ("", "a/b", "a\\b", "a.b"):
            with pytest.raises(StoreError):
                store.load(bad, "key")
            with pytest.raises(StoreError):
                store.load("kind", bad)

    def test_miss_counts_and_returns_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        before = PERF.counter("store.miss")
        assert store.load("compile", "absent") is None
        assert PERF.counter("store.miss") == before + 1
        assert store.graph.nodes == []  # misses are not graph nodes


class TestCorruption:
    """Damage costs a rebuild, never correctness (satellite 3)."""

    def _saved(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("compile", "feed", {"plan": "data"})
        return store, _envelope_path(store, "compile", "feed")

    def test_truncated_envelope_falls_through(self, tmp_path):
        store, path = self._saved(tmp_path)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        corrupt = PERF.counter("store.corrupt")
        assert store.load("compile", "feed") is None
        assert PERF.counter("store.corrupt") == corrupt + 1
        assert not path.exists()  # evicted so the rebuild replaces it
        store.save("compile", "feed", {"plan": "rebuilt"})
        assert store.load("compile", "feed") == {"plan": "rebuilt"}

    def test_garbled_payload_fails_checksum(self, tmp_path):
        store, path = self._saved(tmp_path)
        envelope = json.loads(path.read_text())
        envelope["payload"] = {"plan": "tampered"}
        path.write_text(json.dumps(envelope))
        corrupt = PERF.counter("store.corrupt")
        assert store.load("compile", "feed") is None
        assert PERF.counter("store.corrupt") == corrupt + 1

    def test_future_version_is_a_clean_miss(self, tmp_path):
        store, path = self._saved(tmp_path)
        envelope = json.loads(path.read_text())
        envelope["version"] = ENVELOPE_VERSION + 1
        path.write_text(json.dumps(envelope))
        assert store.load("compile", "feed") is None

    def test_key_mismatch_detected(self, tmp_path):
        store, path = self._saved(tmp_path)
        other = path.with_name("0feed.json")
        other.write_text(path.read_text())  # file moved to a wrong key
        assert store.load("compile", "0feed") is None
        assert not other.exists()

    def test_not_even_json(self, tmp_path):
        store, path = self._saved(tmp_path)
        path.write_bytes(b"\x00\xffgarbage")
        assert store.load("compile", "feed") is None


class TestConcurrency:
    def test_racing_same_key_writers_leave_a_valid_artifact(self,
                                                            tmp_path):
        store = ArtifactStore(tmp_path)
        payloads = [{"writer": index, "data": list(range(50))}
                    for index in range(8)]
        barrier = threading.Barrier(len(payloads))

        def write(payload):
            barrier.wait()
            for _ in range(20):
                store.save("compile", "contended", payload)

        threads = [threading.Thread(target=write, args=(payload,))
                   for payload in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # last writer wins; whoever won, the envelope is whole
        loaded = store.load("compile", "contended")
        assert loaded in payloads
        assert not list(store._tmp.glob("*.tmp"))  # no leaked temps


class TestMaintenance:
    def test_ls_and_info(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("compile", "aa", {"n": 1}, meta={"machine": "m1"})
        store.save("compile", "bb", {"n": 2})
        store.save("codegen", "cc", {"f.vhd": "text"})
        entries = store.ls()
        assert [(e["kind"], e["key"]) for e in entries] \
            == [("codegen", "cc"), ("compile", "aa"), ("compile", "bb")]
        assert entries[1]["meta"] == {"machine": "m1"}
        info = store.info()
        assert info["artifacts"] == 3
        assert info["kinds"]["compile"]["artifacts"] == 2
        assert info["bytes"] > 0

    def test_ls_flags_corruption_instead_of_hiding_it(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("compile", "aa", {"n": 1})
        _envelope_path(store, "compile", "aa").write_text("{broken")
        entries = store.ls("compile")
        assert entries[0].get("corrupt") is True

    def test_gc_everything_and_dry_run(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("compile", "aa", {"n": 1})
        store.save("codegen", "bb", {"n": 2})
        assert sorted(store.gc(dry_run=True)) \
            == [("codegen", "bb"), ("compile", "aa")]
        assert store.info()["artifacts"] == 2  # dry run removed nothing
        removed = store.gc()
        assert len(removed) == 2
        assert store.info()["artifacts"] == 0

    def test_gc_is_lru_because_loads_refresh_mtime(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("compile", "old", {"n": 1})
        store.save("compile", "hot", {"n": 2})
        stale = 1.0  # pretend both were written long ago
        for key in ("old", "hot"):
            os.utime(_envelope_path(store, "compile", key),
                     (stale, stale))
        store.load("compile", "hot")  # a warm hit refreshes its mtime
        removed = store.gc(max_age_s=3600)
        assert removed == [("compile", "old")]
        assert store.load("compile", "hot") == {"n": 2}

    def test_ls_and_gc_reject_a_kind_outside_the_store(self, tmp_path,
                                                       capsys):
        from repro.cli import main
        (tmp_path / "secret.json").write_text("{}")
        store = ArtifactStore(tmp_path / "st")
        with pytest.raises(StoreError, match="invalid artifact kind"):
            store.ls("../..")
        with pytest.raises(StoreError, match="invalid artifact kind"):
            store.gc(kind="../..", dry_run=True)
        for action in (["ls"], ["gc", "--dry-run"], ["gc"]):
            assert main(["store", *action, "--store", str(store.root),
                         "--kind", "../.."]) == 2
            assert "secret" not in capsys.readouterr().out
        assert (tmp_path / "secret.json").exists()


class TestActiveStore:
    def test_set_and_restore(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert get_active_store() is None
        previous = set_active_store(store)
        assert previous is None
        assert get_active_store() is store
        set_active_store(None)
        assert get_active_store() is None

    def test_using_store_scopes_activation(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with using_store(store):
            assert get_active_store() is store
        assert get_active_store() is None

    def test_env_auto_activation(self, tmp_path):
        store_mod._ACTIVE = False  # unresolved: the env probe may run
        os.environ[STORE_ENV] = str(tmp_path / "envstore")
        store = get_active_store()
        assert store is not None
        assert store.root == tmp_path / "envstore"
        assert get_active_store() is store  # resolved once, then cached


def registry_model():
    profile = create_soc_profile()
    model = mm.Model("TopSoc")
    cpu = model.add(mm.Component("Cpu"))
    apply_stereotype(cpu, profile.stereotype("IpCore"), vendor="t")
    machine = StateMachine("boot")
    region = machine.region
    region.add_transition(region.add_initial(), region.add_state("Run"))
    cpu.add_behavior(machine, as_classifier_behavior=True)
    return model, profile


class TestModelRegistry:
    def test_register_and_search(self, tmp_path):
        model, profile = registry_model()
        registry = ModelRegistry(ArtifactStore(tmp_path))
        record = registry.register(model, [profile])
        assert record["name"] == "TopSoc"
        assert record["fingerprint"] == model_fingerprint(model)
        machine = model.descendants_of_type(StateMachine)[0]
        assert record["machines"] == {
            "Cpu::boot": element_fingerprint(machine)}
        assert "IpCore" in record["stereotypes"]
        assert registry.search(name="topsoc") == [record]
        assert registry.search(stereotype="ipcore") == [record]
        assert registry.search(profile="SoC") == [record]
        assert registry.search(name="topsoc", stereotype="nosuch") == []

    def test_register_is_idempotent_until_the_model_changes(self,
                                                            tmp_path):
        model, profile = registry_model()
        store = ArtifactStore(tmp_path)
        registry = ModelRegistry(store)
        registry.register(model, [profile])
        registry.register(model, [profile])
        assert len(store.ls("model")) == 1
        model.add(mm.Component("Dsp"))
        registry.register(model, [profile])
        assert len(store.ls("model")) == 2  # edited model, new record


class TestFingerprintCrossProcess:
    """Satellite 2: fingerprints must not embed process-local state."""

    CHILD = (
        "import sys\n"
        "from repro import xmi\n"
        "from repro.metamodel import element_fingerprint, "
        "model_fingerprint\n"
        "from repro.statemachines import StateMachine\n"
        "document = xmi.read_file(sys.argv[1])\n"
        "model = document.model\n"
        "lines = [model_fingerprint(model)]\n"
        "for element in model.all_owned():\n"
        "    if isinstance(element, StateMachine):\n"
        "        lines.append(element_fingerprint(element))\n"
        "print('\\n'.join(lines))\n"
    )

    def test_subprocess_identity(self, tmp_path):
        model, profile = registry_model()
        model_file = tmp_path / "m.xmi"
        xmi.write_file(str(model_file), model, [profile])
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
            else "")
        outputs = [
            subprocess.run(
                [sys.executable, "-c", self.CHILD, str(model_file)],
                capture_output=True, text=True, env=env, check=True
            ).stdout
            for _ in range(2)]
        assert outputs[0] == outputs[1]
        # and both match this process's view of the same document
        document = xmi.read_file(str(model_file))
        assert outputs[0].splitlines()[0] \
            == model_fingerprint(document.model)

    def test_object_addresses_do_not_leak_into_fingerprints(self):
        class Probe:
            pass  # default repr embeds "at 0x..."

        def build():
            repro.reset_ids()
            model = mm.Model("probe")
            cpu = model.add(mm.Component("Cpu"))
            cpu.hook = Probe()
            return model

        assert model_fingerprint(build()) == model_fingerprint(build())

    def test_set_values_hash_order_free(self):
        def build(tags):
            repro.reset_ids()
            model = mm.Model("probe")
            model.add(mm.Component("Cpu")).tags = tags
            return model

        assert model_fingerprint(build({"a", "b", "c"})) \
            == model_fingerprint(build({"c", "b", "a"}))


class TestStoreCli:
    def _model_file(self, tmp_path):
        from repro.hw import make_memory, make_soc, \
            make_traffic_generator
        model = mm.Model("design")
        package = model.create_package("design")
        cpu = make_traffic_generator("Cpu", period=2.0,
                                     address_range=0x1000)
        ram = make_memory("Ram", size_bytes=0x800)
        make_soc("Soc", masters=[cpu],
                 slaves=[(ram, "bus", 0, 0x800)], package=package)
        path = tmp_path / "soc.xmi"
        xmi.write_file(str(path), model)
        return str(path)

    def test_simulate_store_ls_info_gc(self, tmp_path, capsys):
        from repro.cli import main
        model_file = self._model_file(tmp_path)
        store_dir = str(tmp_path / "store")
        assert main(["simulate", model_file, "--top", "design::Soc",
                     "--until", "20", "--engine", "compiled",
                     "--store", store_dir]) == 0
        capsys.readouterr()

        # simulate --store registers the model; compiles stay in memory
        assert main(["store", "ls", "--store", store_dir]) == 0
        assert "model" in capsys.readouterr().out

        assert main(["store", "info", "--store", store_dir]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["artifacts"] == 1
        assert list(info["kinds"]) == ["model"]

        # registry query by model name
        assert main(["store", "ls", "--store", store_dir,
                     "--name", "design"]) == 0
        assert "1 model(s) matched" in capsys.readouterr().out

        # dry-run gc removes nothing; real gc empties the store
        assert main(["store", "gc", "--store", store_dir,
                     "--dry-run"]) == 0
        assert "would remove" in capsys.readouterr().out
        assert main(["store", "info", "--store", store_dir]) == 0
        assert json.loads(capsys.readouterr().out)["artifacts"] \
            == info["artifacts"]
        assert main(["store", "gc", "--store", store_dir]) == 0
        capsys.readouterr()
        assert main(["store", "info", "--store", store_dir]) == 0
        assert json.loads(capsys.readouterr().out)["artifacts"] == 0
