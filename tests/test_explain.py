"""Tests for the plan explainer."""


from repro.core.explain import explain_plan
from repro.core.inttm import default_plan
from repro.core.partition import PAPER_THRESHOLDS
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR


class TestExplainPlan:
    def test_natural_strategy_narrative(self):
        plan = default_plan((50, 50, 50), 0, 16, ROW_MAJOR)
        text = explain_plan(plan)
        assert "forward" in text
        assert "natural choice for row-major" in text
        assert "unit-stride" in text

    def test_fallback_strategy_narrative(self):
        plan = default_plan((50, 50, 50), 2, 16, ROW_MAJOR)
        text = explain_plan(plan)
        assert "fallback" in text
        assert "backward" in text

    def test_threshold_window_membership(self):
        plan = default_plan((64, 64, 64, 64), 0, 16, ROW_MAJOR, degree=2)
        text = explain_plan(plan, PAPER_THRESHOLDS)
        assert "MSTH" in text and "MLTH" in text

    def test_no_loop_case(self):
        plan = default_plan((50, 50, 50), 0, 16, ROW_MAJOR)  # full merge
        assert "single kernel call" in explain_plan(plan)

    def test_loop_case_counts_iterations(self):
        plan = default_plan((7, 50, 50, 50), 1, 16, ROW_MAJOR, degree=1)
        text = explain_plan(plan)
        assert "kernel invocations" in text
        assert "350" in text  # 7 x 50

    def test_thread_narratives(self):
        serial = default_plan((50, 50, 50), 0, 16, ROW_MAJOR)
        assert "serial" in explain_plan(serial)
        loops = default_plan((50, 50, 50), 1, 16, ROW_MAJOR,
                             loop_threads=4, degree=1)
        assert "P_L=4" in explain_plan(loops)
        kernel = default_plan((50, 50, 50), 0, 16, ROW_MAJOR,
                              kernel_threads=4)
        assert "P_C=4" in explain_plan(kernel)

    def test_kernel_legality_narrative(self):
        plan = default_plan((50, 50, 50), 1, 16, COL_MAJOR)
        text = explain_plan(plan)
        assert "BLAS-legal" in text

    def test_describe_line_is_first(self):
        plan = default_plan((5, 5), 0, 2, ROW_MAJOR)
        assert explain_plan(plan).splitlines()[0] == plan.describe()

    def test_leading_mode_rule_is_named(self):
        for shape, mode, layout in (((20, 30, 40), 2, ROW_MAJOR),
                                    ((40, 30, 20), 0, COL_MAJOR)):
            plan = default_plan(shape, mode, 16, layout, degree=2)
            text = explain_plan(plan, PAPER_THRESHOLDS)
            assert "leading-mode rule" in text
            assert "MSTH=" not in text
        strided = default_plan((20, 30, 40), 2, 16, ROW_MAJOR, degree=1)
        assert "leading-mode rule" not in explain_plan(strided)
