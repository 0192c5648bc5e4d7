"""The benchmark's tracer (perfbench/spans.py) wraps engine functions by
replacing ``owner.__dict__[attr]`` for a fixed list of attributes. A
refactor that moves one of them (say, ``tokenize_flat`` off
``CodeAnalyzer``) breaks the tracer; entering and leaving it here makes
that fail the main test suite, not only ``python -m pytest perfbench``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from spans import Tracer, instrumented  # noqa: E402


def test_tracer_hooks_install_and_restore():
    from lucene_ray.analysis import CodeAnalyzer
    from lucene_ray.search import engine

    before = (CodeAnalyzer.__dict__["tokenize_flat"], engine.parse_query)
    tracer = Tracer()
    with instrumented(tracer):
        assert CodeAnalyzer.__dict__["tokenize_flat"] is not before[0]
        tracer.enabled = True
        with tracer.span("op.query"):
            engine.parse_query("fooBar AND baz", CodeAnalyzer())
        tracer.enabled = False
    assert (CodeAnalyzer.__dict__["tokenize_flat"], engine.parse_query) == before
    # query-time analysis runs the stream kernel, inside the parse span
    names = {i: s[0] for i, s in enumerate(tracer.spans)}
    tokenize = [s for s in tracer.spans if s[0] == "analysis.tokenize"]
    assert tokenize
    assert {names[s[3]] for s in tokenize} == {"search.query.parse"}
