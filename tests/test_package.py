"""The package surface is exactly the union of the module __all__s."""

import hazardsignal as hs

MODULES = (hs.model, hs.consistency, hs.equilibrium, hs.design, hs.oracle, hs.scenario)


def test_all_is_the_sorted_union_of_the_module_alls():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)) == 47
    assert hs.__all__ == sorted(names)


def test_every_name_is_the_modules_own_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(hs, name) is getattr(module, name), name


def test_solver_tolerance_is_not_exported():
    assert hs.model.BISECT_TOL == 1e-12
    assert "BISECT_TOL" not in hs.__all__
    assert "BISECT_TOL" not in hs.model.__all__
