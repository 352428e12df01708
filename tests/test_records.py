"""The package's record types: constructors, validation, ==, hash, repr and
immutability, as the plain and namedtuple classes give them."""

import pytest

from walkdelta.circuits import R2_ONE, Circuit, CircuitError, Gate, Root2Frac
from walkdelta.clock import CompiledInstance, ControlRun, Layout, ScanReport
from walkdelta.estimator import NoisyEstimate, SpectralMeasure
from walkdelta.rewriting import Alphabet, RewriteError, Rule, WalkVector
from walkdelta.verifier import Check, VerificationReport

H0 = Gate("h", 0)

# record type -> (a field, arguments, arguments differing in the last field, repr)
FROZEN = {
    Root2Frac: ("a", (1, 2, 3), (1, 2, 4), "Root2Frac(1, 2, 3)"),
    Gate: ("kind", ("h", 0), ("h", 1), "Gate(kind='h', qubit=0)"),
    Circuit: (
        "n_qubits",
        (1, ((H0,),)),
        (1, ((H0,), (H0,))),
        "Circuit(n_qubits=1, layers=((Gate(kind='h', qubit=0),),))",
    ),
    Alphabet: ("tokens", (("a", "b"),), (("a", "c"),), "Alphabet(tokens=('a', 'b'))"),
    Rule: ("lhs", ((0,), (1,)), ((0,), (2,)), "Rule(lhs=(0,), rhs=(1,))"),
    ScanReport: (
        "triples_total",
        (1, 2, 3, 4, 5, 6),
        (1, 2, 3, 4, 5, 7),
        "ScanReport(triples_total=1, windows_matched=2, directed_pairs=3, "
        "max_images=4, self_pairs=5, bidirectional=6)",
    ),
    Layout: (
        "block",
        (2, 1, (13,), (3,), 0, 1),
        (2, 1, (13,), (3,), 0, 2),
        "Layout(block=2, width=1, program=(13,), data=(3,), register_start=0, exec_pos=1)",
    ),
    ControlRun: (
        "ell",
        (3, ((0,), (1,)), 1),
        (3, ((0,), (1,)), 0),
        "ControlRun(ell=3, configs=((0,), (1,)), d_parity=1)",
    ),
    SpectralMeasure: (
        "eigenvalues",
        ((1.0,), (0.5,)),
        ((1.0,), (0.25,)),
        "SpectralMeasure(eigenvalues=(1.0,), probabilities=(0.5,))",
    ),
    NoisyEstimate: (
        "value",
        (0.5, 0.125, 0.25, 10),
        (0.5, 0.125, 0.25, 11),
        "NoisyEstimate(value=0.5, bias_bound=0.125, halfwidth=0.25, samples=10)",
    ),
    CompiledInstance: (
        "system",
        ("system", b"s", b"t", b"u", 5, 4, 0, 2.0, 0.5),
        ("system", b"s", b"t", b"u", 5, 4, 0, 2.0, 0.25),
        "CompiledInstance(system='system', s=b's', t=b't', t_prime=b'u', m=5, ell=4, "
        "d_parity=0, c=2.0, epsilon=0.5)",
    ),
}

# immutable records holding a dict: no hash, since the dict has none
UNHASHABLE = {
    WalkVector: ("space", ("space", {0: 1}), ("space", {0: 2}), "WalkVector(space='space', entries={0: 1})"),
    Check: (
        "name",
        ("orbit", True, {"n": 1}),
        ("orbit", True, {"n": 2}),
        "Check(name='orbit', passed=True, details={'n': 1})",
    ),
}

MUTABLE = {
    VerificationReport: (
        "checks",
        ([Check("a", None)], -1),
        ([Check("a", None)], None),
        "VerificationReport(checks=[Check(name='a', passed=None, details={})], sigma=-1)",
    ),
}
TABLES = (FROZEN, UNHASHABLE, MUTABLE)


@pytest.mark.parametrize("cls", [*FROZEN, *UNHASHABLE, *MUTABLE], ids=lambda cls: cls.__name__)
def test_records_keep_equality_hash_repr_and_immutability(cls):
    table = next(t for t in TABLES if cls in t)
    name, args, other, text = table[cls]
    first, second = cls(*args), cls(*args)
    assert first == second and not first != second
    assert cls(*other) != first
    assert repr(first) == text
    assert first != object()
    if table is FROZEN:
        assert hash(first) == hash(second)
    else:
        with pytest.raises(TypeError):
            hash(first)
    if table is MUTABLE:
        setattr(first, name, None)
        assert getattr(first, name) is None and first != second
    else:
        with pytest.raises(AttributeError):
            setattr(first, name, None)


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: Gate("cnot", 0), CircuitError, "unknown gate kind 'cnot'"),
        (lambda: Gate("h", -1), CircuitError, "negative qubit index -1"),
        (lambda: Circuit(0, ((),)), CircuitError, "at least one qubit"),
        (lambda: Circuit(2, ((Gate("h", 0), Gate("swap", 0)),)), CircuitError, "overlapping gates"),
        (lambda: Circuit(1, ((Gate("swap", 0),),)), CircuitError, "exceeds 1 qubits"),
        (lambda: Alphabet(()), RewriteError, "at least one token"),
        (lambda: Alphabet(("a", "b", "a")), RewriteError, "must be distinct"),
        (lambda: Rule((1, 2), (1, 2)), RewriteError, "self-loop"),
        (lambda: Rule((1,), (1, 2)), RewriteError, "differ in length"),
        (lambda: Rule((), ()), RewriteError, "empty rule"),
    ],
)
def test_records_validate_on_construction(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_records_take_keywords_and_defaults():
    assert Gate(kind="swap", qubit=1) == Gate("swap", 1)
    assert Rule(lhs=(0,), rhs=(1,)).reversed() == Rule((1,), (0,))
    assert Check("a", True).details == {}
    assert Check("a", True).details is not Check("a", True).details
    report = VerificationReport()
    assert (report.checks, report.sigma) == ([], None)
    assert report.checks is not VerificationReport().checks


def test_root2frac_is_a_number_not_a_tuple():
    with pytest.raises(TypeError):
        R2_ONE < Root2Frac(2, 0, 0)  # noqa: B015
    with pytest.raises(TypeError):
        2 * R2_ONE
    with pytest.raises(AttributeError):
        del R2_ONE.a
    assert {Root2Frac(1, 0, 0): "one"}[R2_ONE] == "one"
