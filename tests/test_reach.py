import importlib.util
import textwrap

from .reach import Reach, executable_lines, spans


def test_reach_lists_the_nested_lines_no_call_ran(tmp_path):
    path = tmp_path.resolve() / "probe.py"
    path.write_text(textwrap.dedent("""\
        LIMIT = 1


        def pick(a):
            if a > LIMIT:
                return "big"
            return "small"


        class Box:
            size = 2
    """))
    assert executable_lines(path) == {4, 5, 6, 7, 10, 11}
    reach = Reach(tmp_path)
    reach.start()
    try:
        spec = importlib.util.spec_from_file_location("probe", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.pick(2) == "big"
    finally:
        reach.stop()
    assert reach.unrun() == {path: [7]}
    assert spans([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"
