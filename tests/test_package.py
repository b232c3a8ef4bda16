"""Package surface: the derived ``__all__`` lists every public object."""
import types

import growthdyn


def test_all_names_resolve_and_none_is_a_module():
    assert "__version__" in growthdyn.__all__
    assert len(set(growthdyn.__all__)) == len(growthdyn.__all__)
    for name in growthdyn.__all__:
        assert not isinstance(getattr(growthdyn, name), types.ModuleType), name
    assert {"fit", "FitProblem", "eval_logistic_family", "TimeSeries"} \
        <= set(growthdyn.__all__)
