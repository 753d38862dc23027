"""The runner that turns a criterion's labelled comparisons into a check."""

from isolab.verify import criterion


def test_all_comparisons_hold():
    @criterion
    def toy(rng, samples):
        yield "first", True
        yield "second", 1 == 1
        return f"{samples} samples"

    assert toy(None, 3) == (True, "3 samples")


def test_the_first_comparison_that_fails_is_reported_and_the_rest_never_run():
    @criterion
    def toy(rng, samples):
        yield "first", True
        yield "second", False
        yield "third", 1 // 0 == 0
        return "unreachable"

    assert toy(None, 0) == (False, "second")


def test_no_comparisons():
    @criterion
    def toy(rng, samples):
        return "nothing to compare"
        yield

    assert toy(None, 0) == (True, "nothing to compare")


def test_the_check_keeps_the_criterion_name_and_docstring():
    @criterion
    def toy(rng, samples):
        """A toy criterion."""
        yield "only", True
        return ""

    assert (toy.__name__, toy.__doc__) == ("toy", "A toy criterion.")
