"""The package's value types: read-only, compared and hashed as the tuple of
their fields, validated on construction and again when unpickled; the
normal form, a dict of its nonzero terms; and what an import loads: the
package root no layer, the CLI every layer but neither ``dataclasses`` nor
``inspect``."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from wmfock.fock import TruncationParams
from wmfock.gauge import BundleRep, GaugeUnitary
from wmfock.sparse import PhaseMatrix
from wmfock.spectrum import BoundaryPattern, FunctionalKey, SpectrumConfig
from wmfock.words import GeneratorSymbol, NormalForm, NormalMonomial

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PARAMS = TruncationParams(2, 3)
SWAP = PhaseMatrix([1, 0], 2, [1, 1])

# type, field names, field values, repr text
VALUES = [
    (TruncationParams, ("n", "max_degree"), (2, 3),
     "TruncationParams(n=2, max_degree=3)"),
    (GeneratorSymbol, ("index", "starred"), (2, True),
     "GeneratorSymbol(index=2, starred=True)"),
    (NormalMonomial, ("creation", "vacuum", "annihilation"), ((1, 0), True, (0, 2)),
     "NormalMonomial(creation=(1, 0), vacuum=True, annihilation=(0, 2))"),
    (SpectrumConfig, ("n", "max_degree", "c"), (3, 60, Fraction(1, 2)),
     "SpectrumConfig(n=3, max_degree=60, c=Fraction(1, 2))"),
    (BoundaryPattern, ("pivot", "bits", "tail"), (2, (1,), (3,)),
     "BoundaryPattern(pivot=2, bits=(1,), tail=(3,))"),
    (FunctionalKey, ("kind", "mu"), ("point", (1, 0)),
     "FunctionalKey(kind='point', mu=(1, 0))"),
    (BundleRep, ("params", "roots"), (PARAMS, 4),
     "BundleRep(params=TruncationParams(n=2, max_degree=3), roots=4)"),
    (GaugeUnitary, ("variant", "w", "matrix", "adjoint"), ("shift", 1, SWAP, SWAP),
     "GaugeUnitary(variant='shift', w=1, matrix=%r, adjoint=%r)" % (SWAP, SWAP)),
]
IDS = [case[0].__name__ for case in VALUES]


@pytest.mark.parametrize("cls, fields, values, text", VALUES, ids=IDS)
def test_fields_are_read_only(cls, fields, values, text):
    value = cls(*values)
    assert tuple(getattr(value, name) for name in fields) == values
    for name, field in zip(fields, values):
        with pytest.raises(AttributeError):
            setattr(value, name, field)
    assert tuple(getattr(value, name) for name in fields) == values


@pytest.mark.parametrize("cls, fields, values, text", VALUES, ids=IDS)
def test_equal_fields_give_equal_values_hashed_as_the_tuple(cls, fields, values, text):
    a, b = cls(*values), cls(*values)
    if cls is GaugeUnitary:
        # a cached unitary is compared by identity
        assert a == a and a != b and hash(a) != hash(b)
        return
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(values)


@pytest.mark.parametrize("cls, fields, values, text", VALUES, ids=IDS)
def test_repr_names_every_field(cls, fields, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, fields, values, text", VALUES, ids=IDS)
def test_pickle_round_trip(cls, fields, values, text):
    value = cls(*values)
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls
    assert tuple(getattr(copy, name) for name in fields) == values
    if cls is not GaugeUnitary:
        assert copy == value


@pytest.mark.parametrize("build, error, match", [
    (lambda: TruncationParams(1, 3), ValueError, "at least two generators"),
    (lambda: TruncationParams(2, 0), ValueError, "max_degree must be >= 1"),
    (lambda: GeneratorSymbol(-1), ValueError, "nonnegative"),
    (lambda: GeneratorSymbol(0, True), ValueError, "self-adjoint"),
    (lambda: NormalMonomial((1,), False, (1, 0)), ValueError, "equal length"),
    (lambda: NormalMonomial((1, -1), False, (0, 0)), ValueError, "nonnegative"),
    (lambda: NormalMonomial((0, 0), True, (0, -2)), ValueError, "nonnegative"),
    (lambda: SpectrumConfig(1, 3, Fraction(1, 2)), ValueError, "two generators, got n=1"),
    (lambda: SpectrumConfig(2, 0, Fraction(1, 2)), ValueError, "max_degree must be >= 1"),
    (lambda: SpectrumConfig(2, 3, 0.5), TypeError, "must be exact"),
    (lambda: SpectrumConfig(2, 3, 1), ValueError, "strictly between 0 and 1"),
    (lambda: BundleRep(PARAMS, 0), ValueError, "at least one circle sample"),
])
def test_validation_errors(build, error, match):
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize("forged", [
    tuple.__new__(TruncationParams, (1, 3)),
    tuple.__new__(GeneratorSymbol, (0, True)),
    tuple.__new__(NormalMonomial, ((1,), False, (0, 0))),
    tuple.__new__(SpectrumConfig, (3, 60, Fraction(2))),
    tuple.__new__(BundleRep, (PARAMS, 0)),
], ids=["TruncationParams", "GeneratorSymbol", "NormalMonomial", "SpectrumConfig",
        "BundleRep"])
def test_unpickling_validates_again(forged):
    data = pickle.dumps(forged)
    with pytest.raises(ValueError):
        pickle.loads(data)


IDENTITY = NormalMonomial((0, 0), False, (0, 0))
VACUUM = NormalMonomial((0, 0), True, (0, 0))


def test_normal_form_is_the_dict_of_its_nonzero_terms():
    form = NormalForm({IDENTITY: 2, VACUUM: 0})
    assert form == {IDENTITY: 2} and not form != {IDENTITY: 2}
    assert isinstance(form, dict) and len(form) == 1
    assert NormalForm({VACUUM: 0}) == NormalForm() == {} and not NormalForm()
    assert NormalForm({VACUUM: Fraction(1, 2)}) == {VACUUM: Fraction(1, 2)}
    with pytest.raises(AttributeError):
        form.extra = 1  # no instance dict beside the terms


def test_normal_form_sum_drops_cancelled_terms():
    form = NormalForm({IDENTITY: 1, VACUUM: 3})
    total = form + NormalForm({IDENTITY: -1})
    assert type(total) is NormalForm and total == {VACUUM: 3}
    assert not total + {VACUUM: -3}
    assert form == {IDENTITY: 1, VACUUM: 3}  # the summands are left alone
    assert sum([form, NormalForm({VACUUM: -3})], NormalForm()) == {IDENTITY: 1}


def test_normal_form_pickle_round_trip():
    form = NormalForm({IDENTITY: 2, VACUUM: Fraction(-1, 3)})
    copy = pickle.loads(pickle.dumps(form))
    assert type(copy) is NormalForm and copy == form
    assert repr(copy) == repr(form) == "NormalForm(2/1 · I + -1/3 · P0)"


def test_spectrum_config_coerces_c_to_a_fraction():
    cfg = SpectrumConfig(3, 60, "1/2")
    assert type(cfg.c) is Fraction and cfg.c == Fraction(1, 2)
    assert cfg == SpectrumConfig(3, 60, Fraction(1, 2))
    assert hash(cfg) == hash((3, 60, Fraction(1, 2)))


def test_generator_symbol_index_is_the_field():
    assert GeneratorSymbol(2).index == 2
    assert GeneratorSymbol(2).starred is False


def test_bundle_pickles_without_its_positions():
    # 336 positions would take at least two bytes each in a pickle
    bundle = BundleRep(TruncationParams(3, 6), 4)
    assert len(bundle.positions) == 336
    data = pickle.dumps(bundle)
    assert len(data) < 336
    assert pickle.loads(data).positions is bundle.positions


def _fresh_import(statement, listed):
    """The modules of ``listed`` that ``statement`` leaves loaded in a fresh interpreter."""
    script = ("import sys; %s; print(' '.join(sorted(m for m in sys.modules if m in %r)))"
              % (statement, listed))
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    assert _fresh_import("import wmfock.cli", ("dataclasses", "inspect")) == []


LAYERS = tuple("wmfock." + name for name in
               ("cli", "fock", "gauge", "masa", "sparse", "spectrum", "suites", "words"))


def test_package_root_loads_no_layer_and_the_cli_loads_all():
    # perfbench/child.py imports wmfock.cli and then wraps every layer it
    # finds loaded, so the CLI's import must bring in all eight
    assert _fresh_import("import wmfock", LAYERS) == []
    assert _fresh_import("import wmfock.cli", LAYERS) == sorted(LAYERS)
