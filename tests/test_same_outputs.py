"""Same outputs: every report and the CLI's bytes are pinned by sha256.

The digests were recorded before a refactoring that was meant to change no
output, and were equal on Python 3.10, 3.11, 3.12 and 3.13.  A mismatch here
is a change in what delshadow reports or prints: find its cause, and record a
new digest only for a change that is meant.

`canonicalize`'s members and potential traces are pinned the same way, on
seeded families larger than the pairwise sweeps of test_extremal.py reach.

Reports are hashed without their elapsed time.  The CLI runs in process with
`run_suite`'s clock fixed at 0, so `verify`'s text and JSON carry "0 ms".
"""
import contextlib
import hashlib
import io
import json
import random
import sys
import types

import pytest

from delshadow import cli, extremal, verify
from delshadow.seqcore import Family
from delshadow.verify import SearchBudget

BUDGETS = {
    "bounded": SearchBudget(mode="bounded", max_size=2, samples=300),
    "random": SearchBudget(mode="random", samples=300),
}
EXHAUSTIVE = SearchBudget(mode="exhaustive")
EXHAUSTIVE_CASES = [
    (c, n, k) for c in ("theorem1", "conjecture1", "a_t") for n, k in ((3, 2), (2, 3))
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digests() -> dict:
    """The digest of each report's elapsed-free dict, by check and budget."""

    def digest(rep):
        return _sha(json.dumps(rep.to_dict(include_elapsed=False), sort_keys=True))

    out = {}
    for name, budget in BUDGETS.items():
        for check in verify.ALL_CHECKS:
            (rep,) = verify.run_suite([check], budget)
            out[f"{check}/{name}"] = digest(rep)
    for check, n, k in EXHAUSTIVE_CASES:
        (rep,) = verify.run_suite([check], EXHAUSTIVE, n=n, k=k)
        out[f"{check}/exhaustive/{n},{k}"] = digest(rep)
    return out


# Files in the working directory of every command; `--in -` reads fam.txt.
FILES = {
    "fam.txt": "# a family\n3 2\n0 1 2\n1 0 2\n2 2 0\n0 0 1\n1 1 1\n2 0 1\n",
    "bin.txt": "4 1\n0 0 1 1\n1 0 1 0\n1 1 1 0\n0 1 1 1\n1 1 1 1\n",
    "empty.txt": "2 3\n",
    "bad.txt": "3 1\n0 1 2\n",
}
_JSON_COMMANDS = [
    "shadow --r 0 --in fam.txt",
    "shadow --r max --in fam.txt",
    "shadow --r 1 --in -",
    "shadow --r 0 --in empty.txt",
    "initseg --n 3 --k 2 --size 11",
    "initseg --n 4 --k 1 --size 0",
    "minshadow --n 3 --k 2 --size 11",
    "minshadow --n 300 --k 1 --size 123456789123456789",
    "compress --s 1 --t 2 --in fam.txt",
    "compress --s 12 --t 1 --in fam.txt",
    "canonicalize --in fam.txt",
    "canonicalize --in bin.txt",
    "bound --r 1 --in fam.txt",
    "bound --r max --in bin.txt",
    "family --kind lleq --n 3 --k 2 --r 1 --s 2",
    "family --kind brt --n 3 --k 2 --r 1 --t 1",
    "family --kind at --n 2 --k 3 --t 2",
    "verify --suite theorem1,theorem2,a_t,conjecture1 --n 2 --k 2 --samples 200 --seed 3",
    "verify --suite lemma3,lemma4,lemma9,degree_identity",
]
COMMANDS = _JSON_COMMANDS + [f"{c} --json" for c in _JSON_COMMANDS] + [
    "family --kind lleq --n 3 --k 2 --r 1",
    "family --kind brt --n 3 --k 2 --t 1",
    "family --kind at --n 3 --k 2",
    "shadow --r 0 --in bad.txt",
    "shadow --r 0 --in missing.txt",
    "bound --r 3 --in fam.txt",
    "compress --s 1 --t 3 --in fam.txt",
    "verify --suite nope",
    "verify --suite theorem1 --n 4 --k 2 --mode exhaustive",
    "verify --suite theorem1 --n 5 --k 1",
]


def cli_digest(argv: list[str]) -> str:
    """The digest of one in-process run: exit code, stdout and stderr.  Runs
    in a directory that holds FILES, with stdin set to fam.txt."""
    out, err = io.StringIO(), io.StringIO()
    stdin, clock = sys.stdin, verify.time
    sys.stdin = io.StringIO(FILES["fam.txt"])
    verify.time = types.SimpleNamespace(monotonic=lambda: 0.0)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin, verify.time = stdin, clock
    return _sha(f"{code}\0{out.getvalue()}\0{err.getvalue()}")


# A failing run: the closed form and the colex count each read 1 too high, so
# theorem1's violations carry a witness family and lemma3's carry none.
_FAILING = "verify --suite theorem1,lemma3 --n 2 --k 1 --mode exhaustive"
FAILING_COMMANDS = [_FAILING, f"{_FAILING} --json"]


def seeded_family(n: int, k: int, share: float) -> Family:
    """int(share * (k+1)^n) distinct members drawn with a seed fixed by (n, k)."""
    rng = random.Random(f"canon-pin:{n}:{k}")
    base = k + 1
    members = []
    for code in rng.sample(range(base**n), int(share * base**n)):
        x = []
        for _ in range(n):
            code, e = divmod(code, base)
            x.append(e)
        members.append(tuple(x))
    return Family.of(n, k, members)


# canonicalize past the reach of the pairwise sweeps in test_extremal.py:
# passes that pour over several levels (v traces of 4 and 6 entries), and
# packings that move mass and that find it packed (w traces of 2 and 1).
CANONICALIZE_CASES = {
    "8,3,5%": lambda: seeded_family(8, 3, 0.05),
    "9,2,50%": lambda: seeded_family(9, 2, 0.5),
    "6,5,50%": lambda: seeded_family(6, 5, 0.5),
    "12,1,40%": lambda: seeded_family(12, 1, 0.4),
    "one member 0123..,2000,3": lambda: Family.of(2000, 3, [tuple(i % 4 for i in range(2000))]),
}


def write_files(directory) -> None:
    for name, text in FILES.items():
        with open(directory / name, "w", encoding="utf-8") as f:
            f.write(text)


REPORT_DIGESTS = {
    "a_t/bounded":
        "f871ef687ebcb97312b6589e50f745f443472abb082517fd0bd129fc5f2313ed",
    "a_t/exhaustive/2,3":
        "fb3aad5a7bfb301364dda0e68587eaa73490fc7e910bfb46179e14d5f0583951",
    "a_t/exhaustive/3,2":
        "56abaf1ddbcc83fe56b2dbcdb35e117f1aebd44e767af7e658819a9dc53e7939",
    "a_t/random":
        "8489cbcebad3eff4ace03e5cf02e36777846c4d9bdddf3eee1a3c99ef119e4b1",
    "conjecture1/bounded":
        "03e60c15651e78c850339f3dfbe1c98f935a99aaef90d3511df594b340047452",
    "conjecture1/exhaustive/2,3":
        "bf55d130cd90d8debfd603dfd5bbd7d077440ecba541a9b4df984e667accbc88",
    "conjecture1/exhaustive/3,2":
        "530a22266cad6542420342a1dc176224e015973b79657987c9f23cdd58a16129",
    "conjecture1/random":
        "3a09cdc4166345c3c8e288ef4dff1f0139ffc46cd1d209a9fd34bb882a4f1828",
    "corollary11/bounded":
        "8468182aa1ad0da31d49ac840eaa67aa2c782b363a8ea132ed75b6b155966667",
    "corollary11/random":
        "8468182aa1ad0da31d49ac840eaa67aa2c782b363a8ea132ed75b6b155966667",
    "degree_identity/bounded":
        "6ec00242c00e2cb594d8c1f0c7dfaaca75d842074580b82b7290f6f021851ccb",
    "degree_identity/random":
        "6ec00242c00e2cb594d8c1f0c7dfaaca75d842074580b82b7290f6f021851ccb",
    "lemma3/bounded":
        "2723a43f86738f11d1a533decc9320216bd86f61f2cc3cb27aa452f44abd04b2",
    "lemma3/random":
        "2723a43f86738f11d1a533decc9320216bd86f61f2cc3cb27aa452f44abd04b2",
    "lemma4/bounded":
        "bfbbb224cf5d410f0fcf2cd1d6ae09a68889b4cfa4018855151e60cd96b4f276",
    "lemma4/random":
        "bfbbb224cf5d410f0fcf2cd1d6ae09a68889b4cfa4018855151e60cd96b4f276",
    "lemma6/bounded":
        "f69e33769cb25f311bdedd33d6c9d257a9d0b0425c8ebd4036fcbd9c1c9e29c5",
    "lemma6/random":
        "f69e33769cb25f311bdedd33d6c9d257a9d0b0425c8ebd4036fcbd9c1c9e29c5",
    "lemma7/bounded":
        "ac489c86afcd88072e6f68eea745d79eb0a7c0714aff1fabd9af64e879c59b4d",
    "lemma7/random":
        "c5929ebac8872ac935467690a6de8c1db807d4a9e2c76b5c291f0ea267c3d5f3",
    "lemma8/bounded":
        "faede264b8574e22be4c8f8a16832af4cd957bb227fb723915d6d4c62354588d",
    "lemma8/random":
        "2775c72c7bcb1af9e1a00f00e75113d90bb6f7292d1351995533157950779dcc",
    "lemma9/bounded":
        "0892e5f33eb6950c97a61dcd73d2281bec1e6e6201d116114af4ff6450a1bb1c",
    "lemma9/random":
        "0892e5f33eb6950c97a61dcd73d2281bec1e6e6201d116114af4ff6450a1bb1c",
    "prop10/bounded":
        "f30610775a7d0de8200ec1dca5d5cb1461a75da8c9c684e66b07718d2487b7cb",
    "prop10/random":
        "a0e4aa03aa61a698f59f0d724d9f6d759e99496b03fd5c6fbead0281f1503fdb",
    "theorem1/bounded":
        "9fa56119d8cac4a144659f184aa557f87838eeef3b3421810750bd1a26c5bc80",
    "theorem1/exhaustive/2,3":
        "68e3a1cd5a6c6541f46b63226011101c4d97c608fd83f5b3e1c3267510c84dd1",
    "theorem1/exhaustive/3,2":
        "4394946a86e55a5ffd840f65dcaa844262defc4729e9885c62bda6ffcb8204a8",
    "theorem1/random":
        "817f19579247b015a41b1eca37a9241bdcd0acd335e5c260b6fdc8ccdf363e0e",
    "theorem2/bounded":
        "407083cd24229ddb8e39a09ebbe25de8f6d2445ef769f70300d4f11acc3452dd",
    "theorem2/random":
        "1f5112a8d8fdc65e8ceaf876d32b0940d2cc0ab631ace64aa9c4d3c4522a535e",
}

CLI_DIGESTS = {
    "bound --r 1 --in fam.txt":
        "24462c21a97b41c335ed3ea285bc8f396e0e816f7fe00c1b68bd7e63e2b11c35",
    "bound --r 1 --in fam.txt --json":
        "8b4d6db9f112e52e2e64acb157010e4a7dcdd1d53cb88c183a00993a055bee91",
    "bound --r 3 --in fam.txt":
        "bb313615c73dd5f38be635f3c909f87f0e33c51a1585a4e82c2ea6befc915ddc",
    "bound --r max --in bin.txt":
        "5ece71cc9cc2645c2673837294d2e843adfa7aa84efd3fd7172d6f57e7e6210d",
    "bound --r max --in bin.txt --json":
        "15155cc898c4a24390fa976fead8b8915009cad05e9a29a6d2190222e67a83d7",
    "canonicalize --in bin.txt":
        "450897722d7d515355422a3cc11eb7bdca80af0afdb4ba06597877fadf41c21e",
    "canonicalize --in bin.txt --json":
        "a2a294a5d6a652923afc359a2b143d615af3dde21d1b01d9585eae711b3bb1b4",
    "canonicalize --in fam.txt":
        "2aeb1d0d6d1c44ba3f01dd030a45981e65e79dd41042baf715723265666e5c6d",
    "canonicalize --in fam.txt --json":
        "5b8eff592ea6e98f16000098ac24e90998961ebcbb0e0c39ac264e946414cc22",
    "compress --s 1 --t 2 --in fam.txt":
        "1ddf3c8996c058bbd49e7cb7f5df114743263d874099b949f16a0894cd2f81e6",
    "compress --s 1 --t 2 --in fam.txt --json":
        "c3193ff4a502769a240204d1acc808923a2b830827ad7e7720b2df3cae4e7943",
    "compress --s 1 --t 3 --in fam.txt":
        "f317286afe3ea453b202e5653785376a15346b3a50a7f18631d15dbfa95b6b27",
    "compress --s 12 --t 1 --in fam.txt":
        "5ec50d5157c738f749728da9a97675d94f930b057e1c75085c0245c1f3756d48",
    "compress --s 12 --t 1 --in fam.txt --json":
        "8f071e2fcf0c2f2bb950f06706cb061f7c2d361a853e23e90f5e7408313a3364",
    "family --kind at --n 2 --k 3 --t 2":
        "48dfa677323100d59d3ddae4b421e16e53318bd35732d9d4153481b5108e8cca",
    "family --kind at --n 2 --k 3 --t 2 --json":
        "3cd3908f2e99f8cd4384097abdc57ba130bc7dcaa45a113a91367a8699865a04",
    "family --kind at --n 3 --k 2":
        "e47d8189d2a98b9a9d1880edfdcccfd1433daf66e6153de2d18a708ce35c97a2",
    "family --kind brt --n 3 --k 2 --r 1 --t 1":
        "5c1b0810cc4b30466dac9f47c5cec5214550d5fc528e556285ff123fc9d6b7ff",
    "family --kind brt --n 3 --k 2 --r 1 --t 1 --json":
        "5e85898711374edc7e3a3200b4df18e3a44ebc88c16eeff9f72a5f00ccc1b6fb",
    "family --kind brt --n 3 --k 2 --t 1":
        "9fb282bc4bb409dbd4cb90d15376bdc4ca7d1e9df3cac35d2cfc78988072c359",
    "family --kind lleq --n 3 --k 2 --r 1":
        "e9cb2a631b5236d1a52fa5ee98af370ac5719ce84c33bbc491b56bdd8e6e9826",
    "family --kind lleq --n 3 --k 2 --r 1 --s 2":
        "f139418e71232fff1865a9e5e755bcf129144c5cfc25526bbcc47a4a568ab773",
    "family --kind lleq --n 3 --k 2 --r 1 --s 2 --json":
        "2e3d23286d6b2245d60c6f7633ad8313495590bf9ab39398efc68c63cabd5469",
    "initseg --n 3 --k 2 --size 11":
        "1ce0c9df6bb06a65abb502e12e9ab865c0f56034e53a49c91ff3e37a32e08b89",
    "initseg --n 3 --k 2 --size 11 --json":
        "ea8198c940a93ef362f20a77d1d080181a22b4cc0283487b8ac100d6a88c3cf8",
    "initseg --n 4 --k 1 --size 0":
        "bfbc6af912da8d8af258ccb41fe87607ab798db9cf931403dc01065257cc1c8e",
    "initseg --n 4 --k 1 --size 0 --json":
        "8063c86f00ab52de8baf7861d08db890bd114ad64bb7dc93f2daa6ef8daaa24e",
    "minshadow --n 3 --k 2 --size 11":
        "63400b7c6c5bc09fc7350f2c6543f5de81c3648cd8adcf18a16d7bfa62aba7de",
    "minshadow --n 3 --k 2 --size 11 --json":
        "2ba3f40babe5ce9cdee7d809d61a9306f7c933f99627a433080ec3e410f8d160",
    "minshadow --n 300 --k 1 --size 123456789123456789":
        "11631c2af31942d0d2d73c48b0058c1aedd2a380a68fb9c42263c71eb4c5219e",
    "minshadow --n 300 --k 1 --size 123456789123456789 --json":
        "79b7adb7d81278d145da8cbcc30e53ea06eb4e6ccc9c41984b1a6c443affe627",
    "shadow --r 0 --in bad.txt":
        "e324f3cbb2aaf681ccc833228cf7589a619f17b0cb0473b74ce8d5ab859e6313",
    "shadow --r 0 --in empty.txt":
        "6a3e638cf827122626d931e3ceb70f2830e3f73941e7a225a5f49a4c5bd1c682",
    "shadow --r 0 --in empty.txt --json":
        "7428136699e197cd8dd5238a5e68fb2b596f22e0ebd12c4e3d134c662811b58f",
    "shadow --r 0 --in fam.txt":
        "8355574d397972dbe53ae1035a8f3420c3e018740a7bc5a3466b61f88873baac",
    "shadow --r 0 --in fam.txt --json":
        "d46de8a2d189790f798ea83abe2b94453b2a0803d6d0ff6766bb51ff57201d84",
    "shadow --r 0 --in missing.txt":
        "70f2ce28557a561d146e6d679ceb47490285d345053e9a5904aad25ced073eaa",
    "shadow --r 1 --in -":
        "07511fbc2f502d4e5151cc030fb54f1594cd2170766ecb3210221bbd380834c0",
    "shadow --r 1 --in - --json":
        "1a590e46a5fe609095d9dc4db99134a55ddc16b9429a34727ac7bfaa8d996376",
    "shadow --r max --in fam.txt":
        "46342145ce7854ad08f8be9242ebf865f64652b280185a73d44b85410af25440",
    "shadow --r max --in fam.txt --json":
        "556b13ca802eac470693a7eca93651424486864491078b1e93bf016b65e4887f",
    "verify --suite lemma3,lemma4,lemma9,degree_identity":
        "3bca4ff782db0b47fafad3128465f0e3f8a2d4f7a776abcc718b4fc5fdebda92",
    "verify --suite lemma3,lemma4,lemma9,degree_identity --json":
        "2fbd924a05460e90ca822f25a56e54fc6085669a0d5fba7561ab26aabc0cab72",
    "verify --suite nope":
        "182d7566e82c2fcf2f944de0c12ba6ac3ff55de428e8cbf7979773b8d350b081",
    "verify --suite theorem1 --n 4 --k 2 --mode exhaustive":
        "0ccb956adea70b0be3c66d6fa6f13610a132a31821cb0e9eafe99750a9bffb7c",
    "verify --suite theorem1 --n 5 --k 1":
        "2c4fa045cfa6ebb37be6b4192ab2ae3e83f3ea6be062888c5e7b1f011a8c36da",
    "verify --suite theorem1,theorem2,a_t,conjecture1 --n 2 --k 2 --samples 200 --seed 3":
        "5f901c6791d6767efbba3c242958bc9e2471ad9e1dc5e7663bf07eac728c2c7b",
    "verify --suite theorem1,theorem2,a_t,conjecture1 --n 2 --k 2 --samples 200 --seed 3 --json":
        "6e655e5435b936060654b3f7499dfdfe99b74def922475b40575be7a33dd30ea",
}

CANONICALIZE_DIGESTS = {
    "8,3,5%":
        "4ba7f10cd19507b00a1260100f47eba56f57a4a45becea2892ad45e90e08b2e2",
    "9,2,50%":
        "22336b5b18a54cf2b4e48fd84589f5f2e26041faaada6b15e0c846fcf5fe1a3a",
    "6,5,50%":
        "a7fc910e04d18f66e4d8ab90d85db0be2d384c6ed16375b61e7e2720b3a62d88",
    "12,1,40%":
        "33b8693deebc7baaefd43dbc2499c23060310f7e01fa88acdf61e880f826d914",
    "one member 0123..,2000,3":
        "07504d9825b5b6a52ad811e8c1be51615b61314b4dc35616a1f4dc06ab505416",
}

FAILING_DIGESTS = {
    _FAILING:
        "941eeb649677f1ec8fb83539491448d9287257de72fc7671b90b9e8f443eebdd",
    f"{_FAILING} --json":
        "0ee49659955d7ac714c1c50ea6060272fb31c1d64efd1a6a2969cfb21228a77b",
}


@pytest.fixture(scope="module")
def reports():
    return report_digests()


@pytest.mark.parametrize("key", sorted(REPORT_DIGESTS))
def test_report_is_unchanged(reports, key):
    assert reports[key] == REPORT_DIGESTS[key]


def test_every_report_is_pinned(reports):
    assert sorted(reports) == sorted(REPORT_DIGESTS)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_bytes_are_unchanged(tmp_path, monkeypatch, command):
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert cli_digest(command.split()) == CLI_DIGESTS[command]


def test_every_command_is_pinned():
    assert sorted(COMMANDS) == sorted(CLI_DIGESTS)


@pytest.mark.parametrize("case", sorted(CANONICALIZE_CASES))
def test_canonicalize_is_unchanged(case):
    result, v_trace, w_trace = extremal.canonicalize_with_potentials(CANONICALIZE_CASES[case]())
    assert _sha(repr((list(result), v_trace, w_trace))) == CANONICALIZE_DIGESTS[case]


def test_every_canonicalize_case_is_pinned():
    assert sorted(CANONICALIZE_CASES) == sorted(CANONICALIZE_DIGESTS)


@pytest.mark.parametrize("command", FAILING_COMMANDS)
def test_failing_verify_bytes_are_unchanged(monkeypatch, command):
    for name in ("min_delta_shadow_size", "ones_count_colex"):
        real = getattr(extremal, name)
        monkeypatch.setattr(extremal, name, lambda *args, real=real: real(*args) + 1)
    assert cli_digest(command.split()) == FAILING_DIGESTS[command]
