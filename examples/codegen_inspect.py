"""Inspect the code INTENSLI generates (paper §4.3.2).

The framework specializes a TTM implementation per input: the loop nest,
index expressions, reshape extents, kernel, and thread dispatch are all
resolved at generation time.  This example prints the generated source
for a range of inputs so the effect of each input property - mode,
layout, thread budget, kernel - is visible.

Run:  python examples/codegen_inspect.py
"""

from repro.core.codegen import generate_source
from repro.core.inttm import default_plan
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR


CASES = [
    (
        "mode-1 of a row-major cube: the whole loop nest collapses into "
        "one batched GEMM",
        default_plan((100, 100, 100), 1, 16, ROW_MAJOR, kernel="blas"),
    ),
    (
        "middle mode of an order-5 tensor, degree 2: literal loops around "
        "a unit-stride kernel",
        default_plan((20, 20, 20, 20, 20), 1, 16, ROW_MAJOR, degree=2,
                     kernel="blas"),
    ),
    (
        "last mode of a row-major tensor: the backward strategy turns it "
        "into a single contiguous GEMM",
        default_plan((64, 64, 64), 2, 16, ROW_MAJOR, kernel="blas"),
    ),
    (
        "column-major (Tensor Toolbox convention): backward strategy with "
        "F-order reshapes",
        default_plan((64, 64, 64), 1, 16, COL_MAJOR, kernel="blas"),
    ),
    (
        "4-way loop parallelism (P_L=4): the collapsed nest becomes a "
        "parfor body",
        default_plan((30, 64, 64, 8), 1, 16, ROW_MAJOR, degree=1,
                     loop_threads=4, kernel="blas"),
    ),
    (
        "kernel threads (P_C=4): the same body on a BLAS pool of 4 threads",
        default_plan((64, 64, 64), 1, 16, ROW_MAJOR, kernel="blas",
                     kernel_threads=4),
    ),
]


def main() -> None:
    for description, plan in CASES:
        print("#", description)
        print(generate_source(plan))
        print()


if __name__ == "__main__":
    main()
