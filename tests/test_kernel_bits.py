"""Bit pins of the Bessel kernels on each route that shares a loop: the
half-integer closed forms (one recurrence for J and I), the small-z
normalized series (one sum for J and I) and the Hankel expansion (P and Q
summed from the kept terms of `_hankel_series`).

Each value is `float.hex` as recorded before those loops were shared, when
every route had its own copy; a refactor of a kernel loop must keep them.

The zeros of J_alpha that `specfun.bessel_zeros` walks are pinned the same
way, as recorded when each table was walked from scratch for its own count.
"""

import pytest

from besselprob import _kernels_py, specfun

HALF = ("bessel_j", "bessel_j_normalized", "bessel_i", "bessel_i_normalized")
NORMALIZED = ("bessel_j_normalized", "bessel_i_normalized")
HANKEL = ("bessel_j_asymptotic", "bessel_j_normalized")

# orders k + 1/2, k = -1..6, at z = 2k + 2 + d for d in (-0.75, 0.25, 1.25):
# below 2k + 2 J and I take the power series for k >= 1, above it the
# closed forms
HALF_BITS = [
    ((-0.5, 0.25), ("0x1.8bd12d1566ddbp+0", "0x1.f01549f7deea5p-1",
                    "0x1.a55984713fb33p+0", "0x1.080ab05ca6148p+0")),
    ((-0.5, 1.25), ("0x1.ccdc5e0d6e215p-3", "0x1.42e3dd88bd954p-2",
                    "0x1.5901198f73217p+0", "0x1.e36fbf49645fdp+0")),
    ((0.5, 1.25), ("0x1.5abf88b13346fp-1", "0x1.84b43fe743470p-1",
                   "0x1.24a958146cee7p+0", "0x1.4812b1f095986p+0")),
    ((0.5, 2.25), ("0x1.a7cedd2872229p-2", "0x1.621c190b9adedp-2",
                   "0x1.3f67515b21cfbp+1", "0x1.0ae0171a31366p+1")),
    ((0.5, 3.25), ("-0x1.8847a78621590p-5", "-0x1.10b7e3dc7c7bap-5",
                   "0x1.6cb6b0b924227p+2", "0x1.fb1b95dd6c590p+1")),
    ((1.5, 3.25), ("0x1.b375ec08a592dp-2", "0x1.17735ab8a4f3dp-2",
                   "0x1.fb2f492c24b02p+1", "0x1.457a7ee8c0ce6p+1")),
    ((1.5, 4.25), ("0x1.7555fa74900aep-4", "0x1.406d01f9edb7ep-5",
                   "0x1.4c16be14e12c4p+3", "0x1.1d06407614bf4p+2")),
    ((1.5, 5.25), ("-0x1.e1e15b29aab54p-3", "-0x1.2d3d38799b65fp-4",
                   "0x1.adc707ef060d0p+4", "0x1.0caaff4156c8dp+3")),
    ((2.5, 5.25), ("0x1.5133cbd56294bp-3", "0x1.91843f5764e14p-5",
                   "0x1.1d4740f67bb41p+4", "0x1.53b06e80b90dcp+2")),
    ((2.5, 6.25), ("-0x1.258c05006193fp-3", "-0x1.c41564467b368p-6",
                   "0x1.8aa96f137e4acp+5", "0x1.2fe766f0a38aep+3")),
    ((2.5, 7.25), ("-0x1.32cf16b4dce00p-2", "-0x1.4608f384303f3p-5",
                   "0x1.0c6a3efe67ef3p+7", "0x1.1d3c306fb6d80p+4")),
    ((3.5, 7.25), ("-0x1.26d829236d705p-4", "-0x1.2e8438ab8e156p-7",
                   "0x1.5d2f7c51eb335p+6", "0x1.664588032e5a0p+3")),
    ((3.5, 8.25), ("-0x1.0d6644fbb1735p-2", "-0x1.5fb43205a26e9p-6",
                   "0x1.efe85ac654a83p+7", "0x1.43b4d26896d42p+4")),
    ((3.5, 9.25), ("-0x1.ef2afc7e6f9f2p-3", "-0x1.b1232a7bbcadap-7",
                   "0x1.5a74c8016cc02p+9", "0x1.2f0e14f6e5350p+5")),
    ((4.5, 9.25), ("-0x1.c82b058da15d9p-3", "-0x1.843d1a03a5aebp-7",
                   "0x1.bda2bd1279bffp+8", "0x1.7b465489d6f8fp+4")),
    ((4.5, 10.25), ("-0x1.04fe37601240ap-2", "-0x1.17e81b65c079bp-7",
                    "0x1.415674ee2fd14p+10", "0x1.589fd9a145a41p+5")),
    ((4.5, 11.25), ("-0x1.9dfd4c31fed27p-4", "-0x1.240aa2e319280p-9",
                    "0x1.c89cf7bb340f6p+11", "0x1.421c14d516276p+6")),
    ((5.5, 11.25), ("-0x1.041760627c8f4p-2", "-0x1.66cc93d561b69p-8",
                    "0x1.238cf12954dc8p+11", "0x1.923291ad6d5c0p+5")),
    ((5.5, 12.25), ("-0x1.2908b89c81fd0p-3", "-0x1.00854370f029ap-9",
                    "0x1.a8b87e8c00e57p+12", "0x1.6ecaa34b592e7p+6")),
    ((5.5, 13.25), ("0x1.df950677b9386p-5", "0x1.0cfe10482cd63p-11",
                    "0x1.3142e2916f5d1p+14", "0x1.566f7cbc3f5e1p+7")),
    ((6.5, 13.25), ("-0x1.67403859e1290p-3", "-0x1.8b6565a2867f5p-10",
                    "0x1.83e062e230f10p+13", "0x1.aae6dec605766p+6")),
    ((6.5, 14.25), ("0x1.1683078a5dc60p-7", "0x1.7e0b94592c88cp-15",
                    "0x1.1c8b0896ee17dp+15", "0x1.86518c637ef7bp+7")),
    ((6.5, 15.25), ("0x1.6244fbb6e281ep-3", "0x1.38b6d06cf521dp-11",
                    "0x1.9c79898dfd175p+16", "0x1.6c178d76de2e3p+8")),
]

# the normalized series serves J up to z = 14 and I up to z = 1e-2
NORMALIZED_BITS = [
    ((-0.7, 1e-06), ("0x1.fffffffffe2aep-1", "0x1.0000000000ea9p+0")),
    ((-0.7, 0.005), ("0x1.fffd44f375a30p-1", "0x1.00015d86b34f2p+0")),
    ((-0.7, 0.01), ("0x1.fff513d30011ap-1", "0x1.0005761d6200fp+0")),
    ((-0.7, 0.9), ("0x1.8113f48ac3925p-2", "0x1.baa8d89663617p+0")),
    ((-0.7, 6.5), ("0x1.d32455ceb86d6p+0", "0x1.5c2d238503578p+9")),
    ((-0.7, 14.0), ("-0x1.d6ae0df7aa0c3p-2", "0x1.6a6b3bc95f277p+20")),
    ((0.0, 1e-06), ("0x1.ffffffffff734p-1", "0x1.0000000000466p+0")),
    ((0.0, 0.005), ("0x1.ffff2e48fe20bp-1", "0x1.000068db96693p+0")),
    ((0.0, 0.01), ("0x1.fffcb924fa352p-1", "0x1.0001a36eda7e5p+0")),
    ((0.0, 0.9), ("0x1.9d73c25f5b27ap-1", "0x1.36863221567cbp+0")),
    ((0.0, 6.5), ("0x1.0a563d835b274p-2", "0x1.a92be308114cdp+6")),
    ((0.0, 14.0), ("0x1.5e5bc548e528fp-3", "0x1.f98a900d26533p+16")),
    ((0.3, 1e-06), ("0x1.ffffffffff93cp-1", "0x1.0000000000362p+0")),
    ((0.3, 0.005), ("0x1.ffff5eae4b2cap-1", "0x1.000050a8e8c6fp+0")),
    ((0.3, 0.01), ("0x1.fffd7ab9d911fp-1", "0x1.000142a3f94bdp+0")),
    ((0.3, 0.9), ("0x1.b3afa311b68a8p-1", "0x1.29ab306abdcd3p+0")),
    ((0.3, 6.5), ("0x1.902be8cb9a128p-4", "0x1.09e7da42a8905p+6")),
    ((0.3, 14.0), ("0x1.aec2c27ca3fefp-4", "0x1.f875f11e9d397p+15")),
    ((2.37, 1e-06), ("0x1.ffffffffffd64p-1", "0x1.000000000014ep+0")),
    ((2.37, 0.005), ("0x1.ffffc1c51fb12p-1", "0x1.00001f1d73121p+0")),
    ((2.37, 0.01), ("0x1.ffff0714a1c39p-1", "0x1.00007c75ddc7ep+0")),
    ((2.37, 0.9), ("0x1.e1f037b85855ap-1", "0x1.0fbe640cc5e97p+0")),
    ((2.37, 6.5), ("-0x1.5a666b0aed17dp-5", "0x1.79b7d8c7c40b8p+3")),
    ((2.37, 14.0), ("-0x1.86351dc6acd74p-8", "0x1.78f788f4b398ap+11")),
    ((7.3, 1e-06), ("0x1.ffffffffffef1p-1", "0x1.0000000000088p+0")),
    ((7.3, 0.005), ("0x1.ffffe6bbad8d0p-1", "0x1.00000ca229c80p+0")),
    ((7.3, 0.01), ("0x1.ffff9aeebce14p-1", "0x1.00003288aa768p+0")),
    ((7.3, 0.9), ("0x1.f3a4bf4204a2dp-1", "0x1.06507153313f6p+0")),
    ((7.3, 6.5), ("0x1.0219889a9e85fp-2", "0x1.a7dbf47bbb9a6p+1")),
    ((7.3, 14.0), ("-0x1.45c768a01e165p-10", "0x1.d980af0058e35p+6")),
]

# the Hankel route at j_crossover, 1.5 and 40 times past it
HANKEL_BITS = [
    ((0.0, 14.0), ("0x1.5e5bc548dc178p-3", "0x1.5e5bc548e528fp-3")),
    ((0.0, 21.0), ("0x1.2ba7df35562a2p-5", "0x1.2ba7df35562a2p-5")),
    ((0.0, 560.0), ("0x1.1431005ec6682p-5", "0x1.1431005ec6682p-5")),
    ((0.3, 14.0), ("0x1.ae3e956497504p-3", "0x1.aec2c27ca3fefp-4")),
    ((0.3, 21.0), ("0x1.c0d55727a3650p-4", "0x1.8de77f0a08d15p-5")),
    ((0.3, 560.0), ("0x1.eeed34d53ee84p-6", "0x1.47b2a8db6a8d6p-8")),
    ((2.37, 14.0), ("-0x1.a91cdfc9c9b7dp-3", "-0x1.86351dc6acd74p-8")),
    ((2.37, 21.0), ("-0x1.b620033df7ea8p-4", "-0x1.33ab2b81fa504p-10")),
    ((2.37, 560.0), ("-0x1.d27aad8554aacp-6", "-0x1.17f6ab0222e90p-23")),
    ((7.3, 15.3225), ("0x1.a4f87439463a9p-6", "0x1.5e8615272d6a6p-14")),
    ((7.3, 22.98375), ("0x1.11ce013238835p-3", "0x1.7a15fcde9cd79p-16")),
    ((7.3, 612.9), ("-0x1.a560cb987af39p-6", "-0x1.854969470be79p-53")),
    ((20.0, 102.0), ("-0x1.1fff03958eef1p-4", "-0x1.bd5892b555f0fp-57")),
    ((20.0, 153.0), ("-0x1.e59c1802867d5p-5", "-0x1.ce7da011fe329p-69")),
    ((20.0, 4080.0), ("0x1.34e300d4cb15bp-10", "0x1.60719a963ba51p-169")),
]


def _check(funcs, point, want):
    got = tuple(getattr(_kernels_py, f)(*point).hex() for f in funcs)
    assert got == want


@pytest.mark.parametrize("point, want", HALF_BITS)
def test_half_order_bits(point, want):
    _check(HALF, point, want)


@pytest.mark.parametrize("point, want", NORMALIZED_BITS)
def test_normalized_series_bits(point, want):
    _check(NORMALIZED, point, want)


@pytest.mark.parametrize("point, want", HANKEL_BITS)
def test_hankel_bits(point, want):
    assert _kernels_py.bessel_j(*point) == _kernels_py.bessel_j_asymptotic(*point)
    _check(HANKEL, point, want)


# j_{alpha,n}: below and past j_crossover, at counts that are and are not
# powers of two; j_{55,1} lies in the fixed-point J band
ZERO_BITS = [
    ((0.0, 1), "0x1.33d152e971b40p+1"),
    ((0.0, 2), "0x1.6148f5b2c2e46p+2"),
    ((-0.4, 1), "0x1.c03febedf7eb4p+0"),
    ((-0.4, 60), "0x1.762a06ca403a3p+7"),
    ((0.5, 3), "0x1.2d97c7f3321d2p+3"),
    ((1.0, 1), "0x1.ea75575af6f08p+1"),
    ((1.0, 49), "0x1.357128d08ec76p+7"),
    ((2.37, 128), "0x1.950dfbd4b2736p+8"),
    ((7.3, 1), "0x1.6dbb22d260fd2p+3"),
    ((7.3, 256), "0x1.9772c3773df3cp+9"),
    ((30.0, 1), "0x1.20c964e2e9c1dp+5"),
    ((55.0, 1), "0x1.f2a178eff9fb3p+5"),
    ((55.0, 2), "0x1.10ab116dee707p+6"),
]


@pytest.mark.parametrize("point, want", ZERO_BITS)
def test_zero_bits(point, want):
    alpha, n = point
    assert specfun.bessel_zeros(alpha, n)[n - 1].hex() == want
