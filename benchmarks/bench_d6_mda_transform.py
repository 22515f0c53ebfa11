"""D6 — MDA PIM->PSM transformation is automatic and scales (Section 3).

Claim: the PIM "is to be more or less automatically transformed to a
Platform Specific Model ... using a platform-specific mapping".

Measured: full software and hardware transformations over PIMs of
10..200 components; rule applications per second and trace completeness
(must be 100% — full automation, no manual gap).  Shape: near-linear
scaling in model size.

The memoized re-transform rows are retired with the in-memory
transform cache; the artifact store's warm transform is measured by
D17.
"""

import time

import pytest

from repro.mda import hardware_transformation, software_transformation

from workloads import synthetic_soc_pim

SIZES = (10, 25, 50, 100)


def measure_point(components: int, which: str):
    pim, profile = synthetic_soc_pim(components)
    transformation = (hardware_transformation() if which == "hw"
                      else software_transformation())
    start = time.perf_counter()
    result = transformation.transform(pim, profiles=[profile])
    elapsed = time.perf_counter() - start
    return {
        "mapping": which,
        "components": components,
        "pim_elements": pim.element_count(),
        "psm_elements": result.psm.element_count(),
        "rules_applied": result.rules_applied,
        "transform_ms": round(1e3 * elapsed, 1),
        "rules_per_s": round(result.rules_applied / elapsed),
        "completeness": result.completeness(),
    }


def table():
    """Rows: both mappings across the size sweep."""
    rows = []
    for which in ("sw", "hw"):
        for components in SIZES:
            rows.append(measure_point(components, which))
    return rows


class TestShape:
    @pytest.mark.parametrize("which", ("sw", "hw"))
    def test_completeness_is_total(self, which):
        row = measure_point(20, which)
        assert row["completeness"] == 1.0

    def test_psm_strictly_larger_than_pim(self):
        row = measure_point(20, "hw")
        assert row["psm_elements"] > row["pim_elements"]

    def test_near_linear_scaling(self):
        small = measure_point(10, "hw")
        large = measure_point(80, "hw")
        size_ratio = large["pim_elements"] / small["pim_elements"]
        time_ratio = large["transform_ms"] / max(small["transform_ms"],
                                                 1e-6)
        # allow quadratic-ish slack but reject explosions
        assert time_ratio < size_ratio ** 2 * 3


def test_benchmark_hw_transform(benchmark):
    pim, profile = synthetic_soc_pim(25)
    transformation = hardware_transformation()
    benchmark(lambda: transformation.transform(pim, profiles=[profile]))


def test_benchmark_sw_transform(benchmark):
    pim, profile = synthetic_soc_pim(25)
    transformation = software_transformation()
    benchmark(lambda: transformation.transform(pim, profiles=[profile]))


if __name__ == "__main__":
    for row in table():
        print(row)
