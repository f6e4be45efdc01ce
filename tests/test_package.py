"""Public API surface of the fvkit package."""

import fvkit


def test_all_names_resolve_once():
    names = fvkit.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(fvkit, name)]
    assert missing == []
