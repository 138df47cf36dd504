"""Type-sensitive goldens for the slot rules and the audit.

``records == records`` treats ``20 == Fraction(20)`` as equal, so it cannot
see a value that comes back with another type or repr.  These tests hash the
``repr`` of every trace column and of ``verify_trace``'s output instead, over
a matrix of number types, control costs, policies and packet modes, plus a
few traces chosen for their edge cases.  ``python tests/test_type_goldens.py``
prints the digests of the current code.
"""

import dataclasses
import hashlib
from decimal import Decimal
from fractions import Fraction

import pytest

from hdrsim import (
    EarliestSwitch3,
    Hysteresis2,
    Profile,
    RoundRobin3,
    SystemParams,
    energy_ledger,
    run,
    verify_trace,
)

NUMBERS = {
    "float": float,
    "fraction": Fraction,
    "int": lambda s: int(Decimal(s)),
}
POLICIES = {"hyst2": Hysteresis2, "rr3": RoundRobin3, "es3": EarliestSwitch3}

# (harvest, load, packet energy, capacity, batteries, thresholds, costs) as
# strings: node 3 can carry a full duty, node 1 starts broke when it has to
# pay for control, and a small capacity makes the ceiling clip
SPEC = {
    "fractional": (("0.75", "0.5", "1.25"), "2.5", "0.5", "2E+1",
                   ("0.25", "4.5", "1E+1"), ("2", "3", "2.5"),
                   ("0.125", "0.5")),
    "integral": (("1", "2", "3"), "3", "1", "4E+1", ("2E+1", "18", "22"),
                 ("2", "3", "3"), ("1", "2")),
}
COSTS = ("zero-int", "zero-float", "status-only", "switch-only", "nonzero")
MODES = ("fractional", "whole")
SLOTS = 60
TOLS = (0, 1e-9)
TAMPER_SLOT = 29


def _params(number, cost, policy):
    v = NUMBERS[number]
    e, g, c, cap, b0, h, costs = SPEC["integral" if number == "int"
                                      else "fractional"]
    n = 2 if policy == "hyst2" else 3
    status, switch = map(v, costs)
    status, switch = {"zero-int": (0, 0), "zero-float": (0.0, 0.0),
                      "status-only": (status, 0), "switch-only": (0, switch),
                      "nonzero": (status, switch)}[cost]
    params = SystemParams(
        harvest_rates=tuple(map(v, e[:n])), input_rate=v(g),
        packet_energy=v(c), status_energy=status, switch_energy=switch,
        battery_capacity=v(cap),
        thresholds=POLICIES[policy](*map(v, h[:n])))
    return params, tuple(map(v, b0[:n]))


def _columns(trace) -> str:
    return "\n".join(map(repr, (
        trace.slots, *trace.battery_pre, *trace.battery_post, trace.active,
        trace.switched, trace.packets, trace.suppressed)))


def _tampered(trace):
    """Copies of ``trace`` with one value changed in one slot."""
    k, n = TAMPER_SLOT, trace.n_nodes

    def bump(col):
        col = col[:]
        col[k] = col[k] + 1
        return col

    active = trace.active[:]
    active[k] = (active[k] + 1) % n
    switched = trace.switched[:]
    switched[k] ^= 1
    changes = {
        "packets": {"packets": bump(trace.packets)},
        "pre": {"battery_pre": (bump(trace.battery_pre[0]),
                                *trace.battery_pre[1:])},
        "post": {"battery_post": (*trace.battery_post[:-1],
                                  bump(trace.battery_post[-1]))},
        "active": {"active": active},
        "switched": {"switched": switched},
    }
    return {name: dataclasses.replace(trace, **change)
            for name, change in changes.items()}


def _outcome(call) -> str:
    try:
        return repr(call())
    except Exception as exc:  # the exception is part of the behaviour
        return f"raises {exc!r}"


def _audit(trace, tols=TOLS) -> str:
    lines = []
    for name, bad in [("honest", trace), *_tampered(trace).items()]:
        for tol in tols:
            lines.append(f"{name} tol={tol}: "
                         + _outcome(lambda: verify_trace(bad, tol=tol)))
    lines.append(_outcome(lambda: energy_ledger(trace)))
    return "\n".join(lines)


def _matrix_text(number, cost, policy, mode) -> str:
    params, batteries = _params(number, cost, policy)
    try:
        trace = run(params, n_slots=SLOTS, packet_mode=mode,
                    initial_batteries=batteries)
    except Exception as exc:
        return f"raises {exc!r}"
    return _columns(trace) + "\n" + _audit(trace)


def _profile_text() -> str:
    """A Fraction run on a profile with int-zero harvest cells and loads,
    an int load, and full-duty slots with int and Fraction harvests."""
    params, batteries = _params("fraction", "zero-int", "rr3")
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    rows = [((0, half, 0), Fraction(5, 2)), ((quarter, 0, 2), 1),
            ((1, 1, 1), 0), ((0, 0, 0), Fraction(0)),
            ((half, Fraction(3, 2), Fraction(5, 4)), Fraction(5, 2))]
    profile = Profile(tuple((row, g, 1) for row, g in rows * 12))
    trace = run(params, profile=profile, initial_batteries=batteries)
    return _columns(trace) + "\n" + _audit(trace)


def _steer_text() -> str:
    """Int inputs whose controller offers Decimal loads from slot 1 on: the
    levels become Decimals partway through the run."""
    params, _ = _params("int", "zero-int", "hyst2")
    params = dataclasses.replace(params, battery_capacity=20)
    try:
        trace = run(params, n_slots=SLOTS, initial_batteries=(10, 12),
                    steer=lambda k, active, e: Decimal("3E+1"))
    except Exception as exc:
        return f"raises {exc!r}"
    return _columns(trace) + "\n" + _audit(trace)


def _inf_text() -> str:
    """A float trace holding an infinite level before and after the
    exchange, audited at tol 0, 1e-9 and a negative tol."""
    params, batteries = _params("float", "zero-int", "hyst2")
    trace = run(params, n_slots=SLOTS, initial_batteries=batteries)
    pre, post = trace.battery_pre[0][:], trace.battery_post[0][:]
    pre[TAMPER_SLOT] = post[TAMPER_SLOT] = float("inf")
    bad = dataclasses.replace(
        trace, battery_pre=(pre, *trace.battery_pre[1:]),
        battery_post=(post, *trace.battery_post[1:]))
    return "\n".join(_outcome(lambda: verify_trace(bad, tol=tol))
                     for tol in (0, 1e-9, -1e-12))


def _negative_tol_text() -> str:
    """An honest Fraction trace audited with a negative tolerance: every
    check fails, even where the values are equal."""
    params, batteries = _params("fraction", "nonzero", "es3")
    trace = run(params, n_slots=SLOTS, initial_batteries=batteries)
    return _outcome(lambda: verify_trace(trace, tol=-Fraction(1, 10**9)))


EXTRA = {
    "profile-int-zero-cells": _profile_text,
    "steer-decimal-load": _steer_text,
    "inf-level": _inf_text,
    "negative-tol": _negative_tol_text,
}


def _cases():
    for number in NUMBERS:
        for cost in COSTS:
            for policy in POLICIES:
                for mode in MODES:
                    yield (f"{number}-{cost}-{policy}-{mode}",
                           lambda a=(number, cost, policy, mode):
                           _matrix_text(*a))
    yield from EXTRA.items()


CASES = dict(_cases())


def digest(case: str) -> str:
    return hashlib.sha256(CASES[case]().encode()).hexdigest()


GOLDEN = {
    'float-zero-int-hyst2-fractional':
        'a5cf95c1586a670c22be386e4aeeaa4a89929b53fb53270c9a1039b95ba0bb34',
    'float-zero-int-hyst2-whole':
        '3ca25fd5ee97014137032d03cfccad06c4d440d7216df62f514867484ddb11ed',
    'float-zero-int-rr3-fractional':
        'f76cf781c888be7d41dda7a60f8fada893ee60e35490cbb6529e4c98279bc503',
    'float-zero-int-rr3-whole':
        '2f2df24360b563ad005fa1034029f64412755b4b1cf6f160612cd13d45b32e47',
    'float-zero-int-es3-fractional':
        '1d8e1580c4bcc8549399fab119c65069fb42511660d45c68c43d91bcc4022509',
    'float-zero-int-es3-whole':
        'cd7358cd68962380caf432af0fac9ad916730fdacdb8556d597099f080ddbbf3',
    'float-zero-float-hyst2-fractional':
        'a5cf95c1586a670c22be386e4aeeaa4a89929b53fb53270c9a1039b95ba0bb34',
    'float-zero-float-hyst2-whole':
        '3ca25fd5ee97014137032d03cfccad06c4d440d7216df62f514867484ddb11ed',
    'float-zero-float-rr3-fractional':
        'f76cf781c888be7d41dda7a60f8fada893ee60e35490cbb6529e4c98279bc503',
    'float-zero-float-rr3-whole':
        '2f2df24360b563ad005fa1034029f64412755b4b1cf6f160612cd13d45b32e47',
    'float-zero-float-es3-fractional':
        '1d8e1580c4bcc8549399fab119c65069fb42511660d45c68c43d91bcc4022509',
    'float-zero-float-es3-whole':
        'cd7358cd68962380caf432af0fac9ad916730fdacdb8556d597099f080ddbbf3',
    'float-status-only-hyst2-fractional':
        'cabb22874febb35eac34e03b5dcb32e34a22f58411d36726eea31652f8293c22',
    'float-status-only-hyst2-whole':
        '8da4e69cb2ca2703c623f37e6596b57df16c7970d67fc93785d279bcef095cc9',
    'float-status-only-rr3-fractional':
        'a2fe8af568d6733e31d7bdc1b3aaf0ce684adc940f6f67a224e4478cac5edb14',
    'float-status-only-rr3-whole':
        'd2c5a7207c43cb57d5443f929a8421d64fed206a32c4c26043d8f0c731f773e5',
    'float-status-only-es3-fractional':
        '64de536916a88214c11bbc45c15293378b9866d4e73977ef0add78c22238ad40',
    'float-status-only-es3-whole':
        'd72999bdea1c6b0ee5765faf9f399c743039f05f3fad9f64c8d8ed8ad5b803f6',
    'float-switch-only-hyst2-fractional':
        '4231f4ab18912c56b1366a5e425ae118d3cb430b6c77113a11be52429bd64022',
    'float-switch-only-hyst2-whole':
        '3c5dd754b2c86ff08adad0853fe98b7fb157e72d3693773e4d98da9332c65f65',
    'float-switch-only-rr3-fractional':
        '3f05505425c717085914b07209286c7aa33bc7ca225065ea06343a08e987b250',
    'float-switch-only-rr3-whole':
        'e1e8c8e63c889c5a1ac62e4ec57aedaa8dcf295659940dca80ff2f4b78f4c963',
    'float-switch-only-es3-fractional':
        '7e1616ea1cfab347a060fca6516e38a15b97eeb0d68fdbc6b1557cc9ee139f05',
    'float-switch-only-es3-whole':
        '67ac6c1a05a510e47c29fc9e83db3c3817bd8a250ad9cd3c5a2d564b9820a1f6',
    'float-nonzero-hyst2-fractional':
        '73b94322337bcaad72e9959c95b88415fb841446ef93ba4029fcaaa3bcaf7870',
    'float-nonzero-hyst2-whole':
        '7a4d15ab4c84fdeb7ce97a068c7b4c614592cfe9472426234e31d1906ce618af',
    'float-nonzero-rr3-fractional':
        '376ecccae32c2d1966ea0adb46ccb3692b800d2f77855c5540feedf322d4e7d4',
    'float-nonzero-rr3-whole':
        '550bedb73199e41509f505e06c8b099f29bdd9216969c370f9e381ce77eef470',
    'float-nonzero-es3-fractional':
        '055a82b472bf8c97bee4e160dd528d18a127a38aaf2a789336d1e23552c30996',
    'float-nonzero-es3-whole':
        '7cb4ae7ee88ff72cdaa6729d0ca542cd60893dfc4680a53923a59529e87f3f7a',
    'fraction-zero-int-hyst2-fractional':
        '138666acf208a66357c2ff8a90947638f270de35d751a61b20371e2e28092bad',
    'fraction-zero-int-hyst2-whole':
        'a0d548b111aa2a91bdf6e8187c4cd575ec23d181a96de4a0b29c6bbf511f86c7',
    'fraction-zero-int-rr3-fractional':
        'd5ca978236dcf98a075e145f9c6d358337e8198acd51feea3cebfc4b46f4eb23',
    'fraction-zero-int-rr3-whole':
        '764fa871d3120178482f5d1f6a8ef9aa91f34a859298346f235ba0ee4f3a505f',
    'fraction-zero-int-es3-fractional':
        '693196085e3185bd296084705d2e829c3dc5d2da2198de0df9efe8ea4f12448e',
    'fraction-zero-int-es3-whole':
        '48e0636812cfafbbd6898c3cb1409d4f4028aeec8f2bded288a0339990bddfdd',
    'fraction-zero-float-hyst2-fractional':
        '9a3311739da333412b16916351473e085cfc4d8c3e3c11aa7288f2cd30c8e065',
    'fraction-zero-float-hyst2-whole':
        '5a33e073a030f682f62d2413572105c4557f11674b07914f95253bb1a4dcf1f5',
    'fraction-zero-float-rr3-fractional':
        '213e45683a31ee2d796a4b56919278031b93aeee4c97991d4ac357f7b8702adc',
    'fraction-zero-float-rr3-whole':
        '5a7c049de1d84e003c0cefdd2a7cad71fbdfd3d06bfd2e0d951abbdb65938ae6',
    'fraction-zero-float-es3-fractional':
        'ef4f76e48d6db3ee6af53e929c69c9479abc0f7f45c405546bc57c1d25e2c71b',
    'fraction-zero-float-es3-whole':
        '30380b6a4208cda5185e1a4f9bf7cb9935293fb521ab12c72fc0b405781aa575',
    'fraction-status-only-hyst2-fractional':
        'ae45dbecd28b2221859479f9f014651a509b5b59e9421dbe1ec6521f4e8fe034',
    'fraction-status-only-hyst2-whole':
        '0c2a8f8557d9135a74540317db8a390a2ec96cd6d8de20fb0a17df07932aa77a',
    'fraction-status-only-rr3-fractional':
        'f891d9fadac3534428953f22e11d4aa1c5d72d0768aea0122b36ba30d79b009f',
    'fraction-status-only-rr3-whole':
        'd5fa7bcb9f1af54c860dde5fc00b9435f00d23216aadebab9676879f56b751e9',
    'fraction-status-only-es3-fractional':
        '5336f674a7bb39bd19dff68833695f70716b684f8f275505799f3db5b061b6af',
    'fraction-status-only-es3-whole':
        '9f4a5ee6bbbd1553c5c20c3b35a874632c42dc3e782927a8e26872e08cbd6d99',
    'fraction-switch-only-hyst2-fractional':
        '895bdc64421bcaf6af68586b8363159d7426f9ccd27873b0002a97644a3193fa',
    'fraction-switch-only-hyst2-whole':
        '907d2a7d93a055709d7900af2f7062f962d40c0b59c68b8259a04519f7a3301b',
    'fraction-switch-only-rr3-fractional':
        'e7631ea633a103afb477070877e5e7a627ab93071b8f4e3ce7795dbbded96972',
    'fraction-switch-only-rr3-whole':
        '08915c0c7ea95cdb79d38045a0fe9d80467a68c0ab34481776e32a67bade870b',
    'fraction-switch-only-es3-fractional':
        '8f4b7a75ac6ff57490277cdf5d3fba5ba5d52358bec79fc0cd9640c8fc75b5c2',
    'fraction-switch-only-es3-whole':
        'bbb3fb76d73f4d81e05ee832e63fb8f6debbc0949f5217a8563be85a05bd5c4a',
    'fraction-nonzero-hyst2-fractional':
        '9158189a9c834555ca83971a0ccd4e211f227b597bf194beb63145ba10f49132',
    'fraction-nonzero-hyst2-whole':
        '9b45467b0a8cba217d1dc894b5fa511a873a2ebd03bba5a90559b7e44de1f249',
    'fraction-nonzero-rr3-fractional':
        'b3684354c45fe5f66b51179cdebc5062961d3eaf98f21b593615429ce408d86a',
    'fraction-nonzero-rr3-whole':
        '5de98bc9e451048eca354bb86959cb88c88bf604aa7c4f63d634cd03d8ced12e',
    'fraction-nonzero-es3-fractional':
        '6c7628359fcddce232d7d9b4c36e0af5e2929728728fcb1889138f1d6b911372',
    'fraction-nonzero-es3-whole':
        '4fdc51d61b5090ff6d1333f496ba9f95c024f381035675a26e1d7adb2868101c',
    'int-zero-int-hyst2-fractional':
        'd4b0e66642216440f813e7712730b3610e30f462359736cbc09b6d58bed7f1d7',
    'int-zero-int-hyst2-whole':
        'a5fa3e478953b3230099956bc034f48035d7952727aa8226784583208dc895d9',
    'int-zero-int-rr3-fractional':
        '277c2cc41a74acbf3511a1af5cc3b09b1daf343b9720b80f6d96ee068506cefd',
    'int-zero-int-rr3-whole':
        '27c5b54f74b06962a55b7d288ed030fcca6158dd368baa97e46753dbd4394da3',
    'int-zero-int-es3-fractional':
        '0b3e341b972ae2fa8cb8cde033b45f88f6ed6343ff4839b297812958dc45cac6',
    'int-zero-int-es3-whole':
        '89e63ef242684a58b3100f298828ffbff4cc03294e7a8746a9a4a589c9b712e2',
    'int-zero-float-hyst2-fractional':
        'd4b0e66642216440f813e7712730b3610e30f462359736cbc09b6d58bed7f1d7',
    'int-zero-float-hyst2-whole':
        'a5fa3e478953b3230099956bc034f48035d7952727aa8226784583208dc895d9',
    'int-zero-float-rr3-fractional':
        '277c2cc41a74acbf3511a1af5cc3b09b1daf343b9720b80f6d96ee068506cefd',
    'int-zero-float-rr3-whole':
        '27c5b54f74b06962a55b7d288ed030fcca6158dd368baa97e46753dbd4394da3',
    'int-zero-float-es3-fractional':
        '0b3e341b972ae2fa8cb8cde033b45f88f6ed6343ff4839b297812958dc45cac6',
    'int-zero-float-es3-whole':
        '89e63ef242684a58b3100f298828ffbff4cc03294e7a8746a9a4a589c9b712e2',
    'int-status-only-hyst2-fractional':
        '16f250bb7bdec69138238a0844962dea602aa931d7c8c0a06b4b7571f8c4b278',
    'int-status-only-hyst2-whole':
        '62f91a2583a2c8eb2a95eeaba6e509a6db29d281b17e2ad5a548c9947f0cabad',
    'int-status-only-rr3-fractional':
        'ccab27e8a279e5fa729bd0e07f005b638e72d37e1b3b6333435c82fd0576712a',
    'int-status-only-rr3-whole':
        'a774bc629fd9e8627da5cf46130fbffb838ef9ffbe99731525691c5a8af7ba60',
    'int-status-only-es3-fractional':
        '32170f293507d6b3d489b82e2c0c1f423efec70caaea8ae28b560fc4c34a2c61',
    'int-status-only-es3-whole':
        '2503da7a265001830a145237f3f200bfe91360aab231cc94da177e3a4be3320e',
    'int-switch-only-hyst2-fractional':
        'f27b9893029caaf73d59a24a36d44fa469b30b31662fb0c66dd8cde48d155e5d',
    'int-switch-only-hyst2-whole':
        'b3eb14fe70dc26ab6b9665bf8087b717db9872da8ffebc5c8b6e2d6b784cd315',
    'int-switch-only-rr3-fractional':
        'd400149de7ac3ef9ec25ba8ee74ce183a465967e3e28aa3335dbd284c849bf4e',
    'int-switch-only-rr3-whole':
        '755ff1cdf83d261949d90ecc0e08745fb9c125878a7e0a8ea92da13cb25fb9a1',
    'int-switch-only-es3-fractional':
        '6bac4032de0765ee63217e1a6b84e91b329c0f7e280de02b4a3ee64fc96fab73',
    'int-switch-only-es3-whole':
        '8dcd0690258b09587d425d882cec7251043d3aba358acaed443762864f6f84ca',
    'int-nonzero-hyst2-fractional':
        'd13f927371b2a371ff63730df2adaa3637f4b01f2e8b8a0be08a00a69a5653a2',
    'int-nonzero-hyst2-whole':
        '4323533aaeb608c496a64677fec4a7cde7490d9f59982618888f664c5c502b9a',
    'int-nonzero-rr3-fractional':
        '7189ad7acaedfa50e2440a95130d49f6a39ac80aead342d6b81bc9be25f14386',
    'int-nonzero-rr3-whole':
        'c7b9bc4acaa40eb42dc4a51c2098220cc112f7c6b1b1ae38caff5f71beca6ff1',
    'int-nonzero-es3-fractional':
        '6e190beecce8cb144dfb6bbc17b1557abf817afb392a9cc141c7a593d18e354a',
    'int-nonzero-es3-whole':
        'ccfd2a326c51b5c77c9e183e14370e3daaf2a0196fcd591128a922e900ecf1d4',
    'profile-int-zero-cells':
        '0ddf8c454dc726e8f288442d35cbcf93dc864ca718a3912d78dcc290b046c6ba',
    'steer-decimal-load':
        'eb1c287da178f5c2621b5823f998e3a436dcdacb5efa79e7226601cb97fffea4',
    'inf-level':
        '0d915fc217131aff1509c551aa9b8beeb96046ca1b81c41cc394a1d268218c77',
    'negative-tol':
        '2964e57dab4f29c59be0c1826246b42cb91db512e1690874d7d4047878ad33a6',
}


@pytest.mark.parametrize("case", list(CASES))
def test_trace_and_audit_keep_their_types_and_reprs(case):
    assert digest(case) == GOLDEN[case]


def test_a_steer_that_keeps_the_load_keeps_the_reprs():
    # steered runs take the same shortcuts as the others
    for number in NUMBERS:
        params, batteries = _params(number, "zero-int", "es3")
        kept = run(params, n_slots=SLOTS, initial_batteries=batteries,
                   steer=lambda *a: params.input_rate)
        assert _columns(kept) == _columns(
            run(params, n_slots=SLOTS, initial_batteries=batteries))


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}:\n        {digest(case)!r},")
