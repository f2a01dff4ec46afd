"""The line census of tests/reach.py on a synthetic source, in this process:
which lines count as function body, which unreached ones are exempt by rule
(a), and that a dead branch is reported."""

import reach

SOURCE = '''\
def outer(xs):  # def outer
    def inner(x):  # def inner
        return x + 1  # nested body
    squares = [inner(x) for x in xs]  # comprehension
    if not squares:
        return None  # dead branch
    return squares


def fails(x):  # def fails
    try:
        return 1 // x
    except ZeroDivisionError as exc:  # except that only raises
        raise ValueError(  # raise, first line
            "x must be nonzero") from exc  # raise, last line


class Box:  # class line
    def __init__(self, v):  # def init
        self.v = v
'''


def line_of(marker: str) -> int:
    return next(i for i, text in enumerate(SOURCE.splitlines(), 1) if text.endswith("# " + marker))


def test_census_of_a_synthetic_source():
    tracer = reach.Tracer(["synthetic.py"])
    namespace = {}
    code = compile(SOURCE, "synthetic.py", "exec")
    with tracer.on():
        exec(code, namespace)
        namespace["outer"]([1, 2])
        namespace["fails"](1)
        namespace["Box"](1)
    ran = tracer.lines["synthetic.py"]
    body, defs, unreached = reach.file_census(SOURCE, "synthetic", ran, ran)

    # nested functions and comprehensions are body; def and class lines and the module body are not
    assert {line_of("nested body"), line_of("comprehension")} <= body
    headers = {line_of(m) for m in ("def outer", "def inner", "def fails", "def init", "class line")}
    assert not headers & body
    assert [d[0] for d in defs] == ["synthetic.outer", "synthetic.fails", "synthetic.Box.__init__"]
    assert all(by == "programs" for *_, by in defs)
    # the multi-line raise and the except clause that only raises are rule (a);
    # the dead branch is reported, unexempt
    raising = ("except that only raises", "raise, first line", "raise, last line")
    expected = {line_of(m): ("synthetic.fails", "raise") for m in raising}
    expected[line_of("dead branch")] = ("synthetic.outer", None)
    assert unreached == expected


def test_a_line_only_library_calls_run_is_rule_b():
    """A definition reached, but not by the programs, has its unreached lines
    exempt as library-only, like the lines the LIBRARY_ONLY calls run."""
    tracer = reach.Tracer(["synthetic.py"])
    namespace = {}
    with tracer.on():
        exec(compile(SOURCE, "synthetic.py", "exec"), namespace)
        programs = set(tracer.lines["synthetic.py"])
        namespace["outer"]([])
    _, defs, unreached = reach.file_census(SOURCE, "synthetic", programs, tracer.lines["synthetic.py"])
    assert dict((d[0], d[3]) for d in defs)["synthetic.outer"] == "library_only"
    assert unreached[line_of("dead branch")] == ("synthetic.outer", "library_only")
    assert unreached[line_of("nested body")] == ("synthetic.outer", "library_only")
