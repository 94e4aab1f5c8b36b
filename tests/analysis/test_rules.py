"""Per-rule fixtures: each rule catches its seeded violation and stays
quiet on the closest legitimate pattern (the near-miss)."""

import textwrap

from repro.analysis import Project, run_check


def scan(rule, **sources):
    project = Project.from_sources(
        {name: textwrap.dedent(src) for name, src in sources.items()})
    return run_check(project=project, rule_names=[rule])


def ids(findings):
    return [f.rule_id for f in findings]


class TestLockDiscipline:
    GUARDED = """
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def put(self, item):
                with self._lock:
                    self._items.append(item)
        """

    def test_unlocked_write_is_lock001(self):
        findings = scan("lock-discipline", m=self.GUARDED + """
            def clear(self):
                self._items = []
        """)
        assert ids(findings) == ["LOCK001"]
        assert "_items" in findings[0].message
        assert "clear" in findings[0].message

    def test_unlocked_read_is_lock002(self):
        findings = scan("lock-discipline", m=self.GUARDED + """
            def peek(self):
                return list(self._items)
        """)
        assert ids(findings) == ["LOCK002"]
        assert findings[0].severity == "warning"

    def test_locked_access_is_clean(self):
        findings = scan("lock-discipline", m=self.GUARDED + """
            def pop(self):
                with self._lock:
                    return self._items.pop()
        """)
        assert findings == []

    def test_init_writes_are_exempt(self):
        assert scan("lock-discipline", m=self.GUARDED) == []

    def test_mutating_method_call_outside_lock_is_flagged(self):
        findings = scan("lock-discipline", m=self.GUARDED + """
            def sneak(self, item):
                self._items.append(item)
        """)
        assert ids(findings) == ["LOCK001"]

    def test_closure_does_not_inherit_held_locks(self):
        # The callback may run on another thread long after the with
        # block exited — the enclosing lock must not excuse it.
        findings = scan("lock-discipline", m=self.GUARDED + """
            def schedule(self, timer):
                with self._lock:
                    timer(lambda: self._items.pop())
        """)
        assert ids(findings) == ["LOCK001"]

    def test_condition_wait_for_predicate_counts_as_locked(self):
        findings = scan("lock-discipline", m="""
            import threading

            class Mailbox:
                def __init__(self):
                    self._cond = threading.Condition()
                    self._items = []

                def put(self, item):
                    with self._cond:
                        self._items.append(item)
                        self._cond.notify_all()

                def get(self):
                    with self._cond:
                        self._cond.wait_for(lambda: self._items)
                        return self._items.pop()
        """)
        assert findings == []

    def test_attribute_never_mutated_under_lock_is_not_guarded(self):
        findings = scan("lock-discipline", m="""
            import threading

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._hits = 0
                    self._name = "stats"

                def hit(self):
                    with self._lock:
                        self._hits += 1

                def label(self):
                    return self._name      # never lock-mutated: fine
        """)
        assert findings == []


class TestBackendProtocol:
    BASE = """
        class ArrayBackend:
            def matmul(self, a, b):
                return a @ b

            def softmax(self, x, axis=-1):
                return x
        """

    def test_signature_drift_is_backend002(self):
        findings = scan("backend-protocol", base=self.BASE, sub="""
            from base import ArrayBackend

            class FastBackend(ArrayBackend):
                def softmax(self, x, dim=-1):
                    return x
        """)
        assert ids(findings) == ["BACKEND002"]
        assert "FastBackend.softmax" in findings[0].message

    def test_matching_override_is_clean(self):
        findings = scan("backend-protocol", base=self.BASE, sub="""
            from base import ArrayBackend

            class FastBackend(ArrayBackend):
                def softmax(self, x, axis=-1):
                    return x * 2
        """)
        assert findings == []

    def test_registered_non_subclass_is_backend001(self):
        findings = scan("backend-protocol", base=self.BASE, reg="""
            class Imposter:
                pass

            _REGISTRY = {"imposter": Imposter}
        """)
        assert ids(findings) == ["BACKEND001"]

    def test_factory_resolving_to_subclass_is_clean(self):
        findings = scan("backend-protocol", base=self.BASE, reg="""
            from base import ArrayBackend

            class Fast(ArrayBackend):
                pass

            def _fast_factory():
                return Fast()

            _REGISTRY = {"fast": _fast_factory}

            def register_backend(name, factory):
                _REGISTRY[name] = factory

            register_backend("fast2", _fast_factory)
        """)
        assert findings == []

    def test_dynamic_binding_is_backend003(self):
        findings = scan("backend-protocol", base=self.BASE, sub="""
            from base import ArrayBackend

            class SneakyBackend(ArrayBackend):
                def __init__(self, inner):
                    for op in ("matmul",):
                        object.__setattr__(self, op, getattr(inner, op))
        """)
        assert ids(findings) == ["BACKEND003"]

    def test_profiling_backend_dynamic_binding_is_backend003(self):
        """No class is exempt: a profiling wrapper forwards with defs."""
        findings = scan("backend-protocol", base=self.BASE, sub="""
            from base import ArrayBackend

            class ProfilingBackend(ArrayBackend):
                def __init__(self, inner):
                    for op in ("matmul",):
                        object.__setattr__(self, op, getattr(inner, op))
        """)
        assert ids(findings) == ["BACKEND003"]


class TestDigestSchema:
    def test_uncoerced_value_is_digest001(self):
        findings = scan("digest-schema", m="""
            def submodel_recipe(kind, hp):
                return {"kind": str(kind), "hp": hp}
        """)
        assert ids(findings) == ["DIGEST001"]
        assert "'hp'" in findings[0].message

    def test_coerced_values_are_clean(self):
        findings = scan("digest-schema", m="""
            def submodel_recipe(kind, hp, extras):
                recipe = {"kind": str(kind), "hp": int(hp),
                          "extras": sorted(str(e) for e in extras),
                          "mode": "a" if hp else "b",
                          "nested": {"x": 1, "y": [1.0, None, True]}}
                recipe["late"] = str(len(extras))
                return recipe
        """)
        assert findings == []

    def test_excluded_key_in_recipe_is_digest002(self):
        findings = scan("digest-schema", m="""
            def fusion_recipe(codec):
                return {"codec": str(codec)}
        """)
        assert ids(findings) == ["DIGEST002"]

    def test_excluded_keyword_at_call_site_is_digest002(self):
        findings = scan("digest-schema", m="""
            def build(plan):
                return plan.submodel_recipe("m0", codec="q8")
        """)
        assert ids(findings) == ["DIGEST002"]

    def test_non_recipe_functions_are_out_of_scope(self):
        findings = scan("digest-schema", m="""
            def demo_recipes(models):
                return {"anything": models}

            def summary(raw):
                return {"raw": raw}
        """)
        assert findings == []


class TestWireProtocol:
    def test_raw_wire_tuple_is_wire001(self):
        findings = scan("wire-protocol", m="""
            def reply(worker_id):
                return ("ready", worker_id)
        """)
        assert ids(findings) == ["WIRE001"]

    def test_string_dispatch_is_wire002(self):
        findings = scan("wire-protocol", m="""
            def handle(message):
                if message[0] == "infer":
                    return message[1]
        """)
        assert ids(findings) == ["WIRE002"]

    def test_unrelated_tuple_with_wrong_arity_is_clean(self):
        # ("error", "warning") is 2 elements; a wire ERROR is always 3.
        findings = scan("wire-protocol", m="""
            SEVERITIES = ("error", "warning")
        """)
        assert findings == []

    def test_arity_drift_in_wire_module_is_wire003(self):
        src = '''
            INFER = "infer"
            STOP = "stop"
            READY = "ready"
            FAILED = "failed"
            FEATURES = "features"
            ERROR = "error"
            STOPPED = "stopped"

            ARITY = {
                INFER: (3, 5),
                STOP: (1, 1),
                READY: (2, 2),
                FAILED: (3, 3),
                FEATURES: (4, 4),
                ERROR: (3, 3),
                STOPPED: (2, 2),
            }
        '''
        findings = scan("wire-protocol", **{"repro.edge.wire": src})
        assert ids(findings) == ["WIRE003"]
        assert "infer" in findings[0].message

    def test_real_wire_module_matches_embedded_table(self):
        import repro.analysis.rules.wire_protocol as rule
        from repro.edge import wire

        assert wire.ARITY == rule.EXPECTED_ARITY


class TestObsNaming:
    def test_single_segment_metric_is_obs001(self):
        findings = scan("obs-naming", m="""
            def setup(registry):
                return registry.counter("requests_total")
        """)
        assert ids(findings) == ["OBS001"]

    def test_histogram_without_unit_suffix_is_obs001(self):
        findings = scan("obs-naming", m="""
            def setup(registry):
                return registry.histogram("serving.occupancy")
        """)
        assert ids(findings) == ["OBS001"]

    def test_well_formed_names_are_clean(self):
        findings = scan("obs-naming", m="""
            def setup(registry, tracer, op):
                registry.counter("serving.requests_total")
                registry.counter(f"kernel.{op}_bytes_total")
                registry.histogram("store.get_seconds")
                registry.gauge("edge.inflight")
                tracer.emit("request")
                tracer.emit("request.queue", trace_id=1)
        """)
        assert findings == []

    def test_bad_span_name_is_obs002(self):
        findings = scan("obs-naming", m="""
            def setup(tracer):
                tracer.emit("Batch-Serve", trace_id=1)
        """)
        assert ids(findings) == ["OBS002"]

    def test_non_literal_metric_name_is_obs003_warning(self):
        findings = scan("obs-naming", m="""
            def setup(registry, name):
                return registry.counter(name)
        """)
        assert ids(findings) == ["OBS003"]
        assert findings[0].severity == "warning"

    def test_non_literal_span_name_is_skipped(self):
        # Span helpers forward caller-supplied names; the literal is
        # checked where it originates.
        findings = scan("obs-naming", m="""
            def emit_span(tracer, name):
                tracer.emit(name, trace_id=1)
        """)
        assert findings == []


class TestHygiene:
    def test_pickle_import_is_hyg001(self):
        findings = scan("hygiene", m="import pickle\n")
        assert ids(findings) == ["HYG001"]

    def test_eval_is_hyg002(self):
        findings = scan("hygiene", m="""
            def load(s):
                return eval(s)
        """)
        assert ids(findings) == ["HYG002"]

    def test_bare_except_is_hyg003(self):
        findings = scan("hygiene", m="""
            def safe(fn):
                try:
                    fn()
                except:
                    pass
        """)
        assert ids(findings) == ["HYG003"]

    def test_narrow_except_is_clean(self):
        findings = scan("hygiene", m="""
            def safe(fn):
                try:
                    fn()
                except Exception:
                    pass
        """)
        assert findings == []

    def test_unjoined_non_daemon_thread_is_hyg004(self):
        findings = scan("hygiene", m="""
            import threading

            def spawn(target):
                thread = threading.Thread(target=target)
                thread.start()
        """)
        assert ids(findings) == ["HYG004"]

    def test_daemon_or_joined_threads_are_clean(self):
        findings = scan("hygiene", m="""
            import threading

            def spawn(target):
                thread = threading.Thread(target=target, daemon=True)
                thread.start()

            def run(target):
                thread = threading.Thread(target=target)
                thread.start()
                thread.join()
        """)
        assert findings == []

    def test_string_join_does_not_count_as_thread_join(self):
        findings = scan("hygiene", m="""
            import threading

            def spawn(parts, target):
                thread = threading.Thread(target=target)
                thread.start()
                return ", ".join(parts)
        """)
        assert ids(findings) == ["HYG004"]

    def test_json_dumps_without_allow_nan_is_hyg005(self):
        findings = scan("hygiene", m="""
            import json

            def render(data):
                return json.dumps(data)
        """)
        assert ids(findings) == ["HYG005"]

    def test_json_dumps_with_allow_nan_false_is_clean(self):
        findings = scan("hygiene", m="""
            import json

            def render(data):
                return json.dumps(data, allow_nan=False)
        """)
        assert findings == []


class TestDriver:
    def test_syntax_error_becomes_a_finding_not_a_crash(self):
        project = Project.from_sources({"broken": "def f(:\n"})
        findings = run_check(project=project)
        assert ids(findings) == ["SYNTAX001"]

    def test_findings_are_sorted_and_stable(self):
        project = Project.from_sources({
            "b": "import pickle\n",
            "a": "import pickle\n",
        })
        findings = run_check(project=project, rule_names=["hygiene"])
        assert [f.file for f in findings] == ["a.py", "b.py"]
        assert findings == run_check(project=project,
                                     rule_names=["hygiene"])
