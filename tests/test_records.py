"""The frozen value records: equality, hashing, immutability, repr, keyword
construction with defaults, validation and copying."""

from __future__ import annotations

import copy
import functools
import pickle

import pytest

from groupspec.arith import Factorization, UsageError, factorize
from groupspec.coset import CosetSpectrum, Piece, TauCriterionResult, tau_criterion
from groupspec.outer import AdmissibilityReport, OutElement, admissible_generators
from groupspec.spectra import GroupSpec, Spectrum, normalize, spectrum


def _records():
    spec = GroupSpec.from_q("PSL", 4, 25)
    sp = spectrum(spec)
    return [factorize(360), spec, sp, Piece(2, sp, "p_divisible"),
            CosetSpectrum((Piece(2, sp),), 5), tau_criterion(4, 3, -1),
            OutElement(1, 4, 5, 2, 1, 1, 3), admissible_generators(spec)]


def test_every_record_class_is_covered():
    assert [type(r) for r in _records()] == [
        Factorization, GroupSpec, Spectrum, Piece, CosetSpectrum,
        TauCriterionResult, OutElement, AdmissibilityReport]


@pytest.mark.parametrize("rec", _records(), ids=lambda r: type(r).__name__)
def test_equality_hash_and_copies(rec):
    fields = [getattr(rec, f) for f in type(rec).__slots__]
    twin = type(rec)(*fields)
    assert twin == rec and not twin != rec and hash(twin) == hash(rec)
    assert twin is not rec
    for other in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(other) is type(rec) and other == rec and hash(other) == hash(rec)
    assert rec != tuple(fields) and rec.__eq__(None) is NotImplemented
    assert len({rec, twin}) == 1


def test_unequal_fields_or_classes():
    assert GroupSpec("PSL", 3, 3, 1) != GroupSpec("PSL", 3, 3, 1, -1)
    assert Spectrum((6, 4)) != Spectrum((6,))
    # equal field values, different record classes
    assert Factorization(()) != Spectrum(())
    assert Spectrum(()) != Factorization(())
    assert len({Factorization(()), Spectrum(())}) == 2


@pytest.mark.parametrize("rec", _records(), ids=lambda r: type(r).__name__)
def test_fields_are_frozen(rec):
    field = type(rec).__slots__[0]
    before = getattr(rec, field)
    with pytest.raises(AttributeError):
        setattr(rec, field, before)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert getattr(rec, field) is before


def test_repr_is_name_and_fields():
    assert repr(GroupSpec.from_q("PSL", 4, 25, -1)) == (
        "GroupSpec(family='PSL', n=4, p=5, m=2, eps=-1)")
    assert repr(spectrum(GroupSpec.from_q("PSL", 4, 3))) == (
        "Spectrum(generators=(20, 13, 12, 9, 8))")
    assert repr(OutElement(1, 4, 5, 2, 1, 1, 0)) == (
        "OutElement(eps=1, n=4, p=5, m=2, a=1, c=1, i=0)")
    assert repr(Piece(2, Spectrum((6,)))) == (
        "Piece(multiplier=2, base=Spectrum(generators=(6,)), constraint='none')")


def test_keyword_construction_with_defaults():
    base = dict(eps=1, n=4, p=5, m=2)
    one = OutElement(a=0, c=0, i=0, **base)
    assert one == OutElement(a=0, **base) == OutElement(1, 4, 5, 2, 0)
    assert (one.c, one.i) == (0, 0) and one.is_identity()
    # the normal form: a mod the order of phi, c mod 2, i mod d = (4, 24) = 4
    assert OutElement(a=3, c=3, i=6, **base).key() == (1, 1, 2)
    # tau is phi^m on the unitary side
    assert OutElement(-1, 3, 3, 2, 1, 1, 5).key() == (3, 0, 0)
    assert GroupSpec(family="Sp", n=2, p=3, m=1).eps == 1
    assert Piece(multiplier=2, base=Spectrum((6,))).constraint == "none"


def test_from_antichain_equals_the_checked_record():
    gens = (20, 13, 12, 9, 8)
    assert normalize([20, 13, 12, 9, 8, 4, 6]) == Spectrum(gens)
    assert hash(Spectrum._from_antichain(gens)) == hash(Spectrum(gens))


@pytest.mark.parametrize("build, message", [
    (lambda: Factorization(((3, 1), (2, 1))),
     "factorization primes must be strictly increasing"),
    (lambda: Factorization(((2, 1), (2, 1))),
     "factorization primes must be strictly increasing"),
    (lambda: Factorization(((2, 0),)), "factorization exponents must be positive"),
    (lambda: GroupSpec("PXL", 3, 3, 1), "unknown family 'PXL'"),
    (lambda: GroupSpec("PSL", 3, 2, 1), "characteristic must be an odd prime"),
    (lambda: GroupSpec("PSL", 3, 9, 1), "characteristic must be an odd prime"),
    (lambda: GroupSpec("PSL", 3, 3, 0), "field exponent m must be positive"),
    (lambda: GroupSpec("PSL", 3, 3, 1, 0), "eps must be +1 or -1"),
    (lambda: GroupSpec("Sp", 2, 3, 1, -1), "Sp takes no sign"),
    (lambda: GroupSpec("PSL", 1, 3, 1), "PSL needs n >= 2"),
    (lambda: Spectrum((6, 0)), "generators must be positive"),
    (lambda: Spectrum((4, 6)), "generators must be strictly descending"),
    (lambda: Spectrum((6, 6)), "generators must be strictly descending"),
    (lambda: Spectrum((12, 6)), "generators must form an antichain"),
    (lambda: Spectrum._from_antichain((4, 6)), "generators must be strictly descending"),
    (lambda: Piece(0, Spectrum((6,))), "piece multiplier must be positive"),
    (lambda: Piece(2, Spectrum((6,)), "odd"), "unknown constraint 'odd'"),
    (lambda: OutElement(0, 4, 5, 2, 1), "eps must be +1 or -1"),
])
def test_validation_raises_usage_error(build, message):
    with pytest.raises(UsageError) as err:
        build()
    assert str(err.value) == message


def test_group_spec_as_cache_key():
    @functools.lru_cache(maxsize=None)
    def dimension(spec):
        return spec.dimension

    assert dimension(GroupSpec("Sp", 2, 3, 1)) == 4
    assert dimension(GroupSpec.from_q("Sp", 2, 3)) == 4
    assert dimension(GroupSpec("PSp", 2, 3, 1)) == 4
    assert dimension.cache_info()[:2] == (1, 2)
    spec = GroupSpec.from_q("PSL", 5, 9, -1)
    assert spectrum(spec) is spectrum(GroupSpec("PSL", 5, 3, 2, -1))
