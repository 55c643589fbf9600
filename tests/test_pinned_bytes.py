"""The JSON bytes of derived modules and maps, pinned by sha256.

Covers, tau walks, almost split sequences, socles and tops depend on every
choice the library makes (Hom bases, isomorphisms, kernels); a faster
construction must reproduce them byte for byte, and so must the demos'
output and the block quiver `grq schur` prints.  The tau, cover and
sequence digests of the sl2 families were recorded before the isomorphism
test and the sl2 projective cover were rewritten; the socle, top, borel and
demo digests before the radical and socle were rewritten; the schur digest
before the template matcher's search was replaced; the borel and ar digests
before the elimination kernel updated only the rows it has to; the p=5
schur digest, whose two 28-member blocks a wrong partition would merge,
before the blocks were read off Hom linkage alone.  Run this file as a
script to print the current ones.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import runpy

import pytest

import reference_blocks as RB
from grquiver import cli
from grquiver import constructions as C
from grquiver import homological as H
from grquiver.grmod import character_module, socle, top

WALK_DEGREES = [(3, d) for d in (3, 4, 6, 7, 9, 10)] + \
    [(5, d) for d in (5, 8, 10, 13)]
STEPS = 3


def digest(*parts) -> str:
    """sha256 over module JSON strings and map matrices (as JSON lists)."""
    h = hashlib.sha256()
    for part in parts:
        text = part if isinstance(part, str) else json.dumps(part.tolist())
        h.update(text.encode() + b"\n")
    return h.hexdigest()


def walk_digest(p, d, sign):
    cur, parts = C.w_hat(p, d), []
    for _ in range(STEPS):
        cur = H.tau(cur) if sign > 0 else H.tau_inv(cur)
        parts.append(cur.to_json())
    return digest(*parts)


def cover_digest(m):
    P, epi = H.projective_cover(m)
    return digest(P.to_json(), epi.matrix)


def almost_split_digest(m):
    seq = H.almost_split_sequence(m)
    return digest(seq.left.to_json(), seq.middle.to_json(),
                  seq.right.to_json(), seq.inj.matrix, seq.surj.matrix)


def socle_top_digest(p, d):
    """Socle and top, with their maps, of every degree-d candidate."""
    parts = []
    for _, m in RB.enumerate_degree_candidates(p, d):
        for sub, f in (socle(m), top(m)):
            parts += [sub.to_json(), f.matrix]
    return digest(*parts)


def outer_tensors(p):
    """The outer tensors whose Betti sequences acceptance criterion 11
    convolves."""
    a1 = C.borel_algebra(p, 1)
    a2 = C.borel_algebra(p, 1, offset=2)
    z1 = C.borel_projective((0, 0), a1)
    z2 = C.borel_projective((0, 0), a2)
    pairs = [
        (character_module(a1, (0, 0)), character_module(a2, (0, 0))),
        (character_module(a1, (0, 0)), z2),
        (z1, character_module(a2, (1, 1))),
        (character_module(a1, (2, 1)), character_module(a2, (0, 2))),
        (H.omega(character_module(a1, (0, 0))),
         character_module(a2, (0, 0))),
    ]
    return [C.outer_tensor(m, n) for m, n in pairs]


def demo_digest(name):
    path = pathlib.Path(__file__).parent.parent / "demos" / f"{name}.py"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return digest(out.getvalue())


def cli_digest(command):
    """sha256 of the stdout of `grq command`, as sha256sum prints it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(command.split()) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


FAMILIES = {"V": C.weyl_hat, "Vo": C.weyl_hat_dual}
SOCLE_TOP_DEGREES = [(3, d) for d in range(3, 9)] + \
    [(5, d) for d in range(5, 8)]
BOREL_PRIMES = [3, 5]
DEMOS = ["block_quiver_demo", "torsion_functor_demo", "borel_demo"]
CLI_RUNS = ["--p 3 --seed 0 schur --d 9 --drop-projective-injective",
            "--p 5 --seed 0 borel --r 2 --d 8",
            "--p 3 --seed 0 borel --r 2 --d 8",
            "--p 3 --seed 0 ar V(4) --max-ql 1 --max-tau 1 --emit dot",
            "--p 5 --seed 0 schur --d 12 --drop-projective-injective"]


def current_digests() -> dict[str, str]:
    out = {}
    for p, d in WALK_DEGREES:
        for sign, arrow in ((1, "tau"), (-1, "tau-")):
            out[f"{arrow}^{STEPS} W({d}) p={p}"] = walk_digest(p, d, sign)
        for fam, build in FAMILIES.items():
            m = build(p, d)
            out[f"cover {fam}({d}) p={p}"] = cover_digest(m)
            out[f"ass {fam}({d}) p={p}"] = almost_split_digest(m)
    for p, d in SOCLE_TOP_DEGREES:
        out[f"socle+top degree {d} p={p}"] = socle_top_digest(p, d)
    for p in BOREL_PRIMES:
        for i, m in enumerate(outer_tensors(p)):
            out[f"cover outer{i} p={p}"] = cover_digest(m)
            out[f"ass outer{i} p={p}"] = almost_split_digest(m)
    for name in DEMOS:
        out[f"demo {name}"] = demo_digest(name)
    for command in CLI_RUNS:
        out[f"grq {command}"] = cli_digest(command)
    return out


PINNED = {
    "tau^3 W(3) p=3": "7078ad0bcb466d2272d04e526e41a1765768b3ab9fa9b8ee5922f4f19f8e7d2d",
    "tau-^3 W(3) p=3": "2cdfca80a33795a7f48a74d7fd69c9c97a4911d85187c0dfc33e3d4d75b834c5",
    "cover V(3) p=3": "a283c08bef1c5f71b843fe680761d203ef41082b856b594a1066ae36f3764ff1",
    "ass V(3) p=3": "310b901fd58fab766d2bfd35eff0d0581331d9b24f150e061c5a0f51680acfeb",
    "cover Vo(3) p=3": "654a485f7052c134912cebbff52265eb55be62c6e19d9a31c8991e0493bd6bd9",
    "ass Vo(3) p=3": "1e310fbc389952c6e62ce137aeea374893cb187df121c9f15537323f082a79b8",
    "tau^3 W(4) p=3": "b02e4f077f0fb8a2f88f2a7d0accbccb75e6cd735f755263b4f2c992b8b74da8",
    "tau-^3 W(4) p=3": "8b9e828fe567dba8917b870ea1c1f4919672c52508a6182eb89172ac5e0a79fe",
    "cover V(4) p=3": "b77399bc4ef94cce263a1145c7d4dcf692c221b58e82efa8182d3d58577de2dc",
    "ass V(4) p=3": "7820b27c1ec111a88516747bc0888eb5d968487156db6a36e191b334b80799ea",
    "cover Vo(4) p=3": "5f7c16085e28b402189c796fe866c20a1d6abd602edeed5665360a6dd8b5e188",
    "ass Vo(4) p=3": "11ba44033576486982ae832424abac51644aea7401aa007e4c23682079f57bbf",
    "tau^3 W(6) p=3": "0da751b7cf4e098eaccfc2a04f9a896cdc17cf9dc23a8339f9e954f7e528ba9e",
    "tau-^3 W(6) p=3": "6b4c7851805c2a057882dd88d814e747917fe80de28a24b723f895c0b5cd61dd",
    "cover V(6) p=3": "df28be9a7361bf2cc7ab60be012abb91a251bc2f231122bfa3e99ab934ed97e3",
    "ass V(6) p=3": "d255a526bae2de2e87170ef2caa1a80027edfd65e626073282b28fb2fe55d39d",
    "cover Vo(6) p=3": "3ba8245d6cf81f090add66578ddc82c7dbb4dc6b6dd8735ba5b18e0463963a4a",
    "ass Vo(6) p=3": "bae4259f9e554fc0681cbbd4ed0172bdb57a7d8d5af29f745e9464911daad0a1",
    "tau^3 W(7) p=3": "2e81c67a5b0c7ae945504e042ba3b1d6349671aeca3a896a4c0245c1d4d6cfe8",
    "tau-^3 W(7) p=3": "25b454ca2cd3e45be4dd438667e6b9a6f12d45eaa175edc9b22cd3523f9759ef",
    "cover V(7) p=3": "6fdd763171bd29f606160fc2f6bd24c2a87bf995726b4c3b756235600e439729",
    "ass V(7) p=3": "daecbceff0a1bbce77172e4e2fd414eb4296dba8fe262819388df91cf1ef7774",
    "cover Vo(7) p=3": "9321a42f0ed51bd583be286484842dfe7c9385a5d8b9750be9f1c23bc2fa6429",
    "ass Vo(7) p=3": "b2bc5686eb78494af673d907d158c55c55f9836279c9c2f2226e5b9a772b7739",
    "tau^3 W(9) p=3": "dcdf011c57e4eb9c7e49414ebd0b3ccb0985c2f5333da3001f016152a8cd1aab",
    "tau-^3 W(9) p=3": "917fdeecc836c8a8ec08debf9b872233c5746fa25b3117c3c94a8a99e475b2e4",
    "cover V(9) p=3": "070d9d612c0bf0668abbafc3da919721240fe602b002289a523e665c071cab91",
    "ass V(9) p=3": "0f4b09fb5ef615cff1b64afcdebb50f19f8a12185847365baf818cd8ec4982e6",
    "cover Vo(9) p=3": "fb50c273f3d19403d24fb0ace6287292b70470bf02e6a328ba57d2ed4e9eaeda",
    "ass Vo(9) p=3": "8dda56cb35662f396047eeedc96aba076a6ea74b08500766b9c5ef95713356b0",
    "tau^3 W(10) p=3": "97724bf3024dc1e38d8e8ed3bf50537e9f76cb613a390a99b17eb8b0da7fd2e7",
    "tau-^3 W(10) p=3": "2f539ec69e4b077a1a56f2a34f9b14d458d7f8d561bcd649ca8a8647c7d32473",
    "cover V(10) p=3": "7b5026a272b940e9ef089f84a18efe9992dca2b4ec10a252fa67ff78d4305d63",
    "ass V(10) p=3": "793e8344127b360617207285d1e3be374914c35f53706c415888222357fb67ce",
    "cover Vo(10) p=3": "8ce20ff507593896b3f14128c89a98a21288f21ed8a2f93257bfaa1b4d3bf5c4",
    "ass Vo(10) p=3": "72f239d9a1e58e4dc92960c8c5f7522c0c54aaf3c4f559e62b92b8668ed9d6a2",
    "tau^3 W(5) p=5": "667721aea649e20dd551eb470ab9db33fb4fd304a7eb06bae815283ec7a7efca",
    "tau-^3 W(5) p=5": "9af026d7cd4b8e5dd82b35001b7094c8459514f34db88ca4ff5aeadb042ef72d",
    "cover V(5) p=5": "e3eddcd4201eaf5bf1b1db079171fa2e417cfac1feae9bf4b3bab0d4f7993220",
    "ass V(5) p=5": "1a7c1844e115e1830c649c0536aa8d7f1634a83adf78ceb92588ff0436465fa4",
    "cover Vo(5) p=5": "69b4375077ee8d0231d018412c3d56778b069ee17f6fdc1924136ff6e02e5201",
    "ass Vo(5) p=5": "dea3dbdeedb5b2657c6e57239b4768e61e45b220f4bc57125d63846f36b24b0c",
    "tau^3 W(8) p=5": "334be7b63b21fd1acc7dd2ea2843c1981d27c92c472538b3978c2ef8d8770ef5",
    "tau-^3 W(8) p=5": "1dc0c00226b54e612b5ec8b5d35fc3b6726da92cbbe18e114332e5524537f0df",
    "cover V(8) p=5": "0c81b8c204d947ce8aa79f54da2d8be16e0b4aa57c2f2d9e9654bff143c6084f",
    "ass V(8) p=5": "b4a4c30e267c13cc3f72c1149cdee483d454721a5eea1872b54d96efd099edc4",
    "cover Vo(8) p=5": "d2bc084481ce6360901a6dfa8c447dfd8351ec5696a7e5088ca99e68035ab4f7",
    "ass Vo(8) p=5": "a7905fcaaac2477ec3d982248d84bd4b4964a6235087bb425fe083bb8d7ccf80",
    "tau^3 W(10) p=5": "c237923ac67416ecbea53a7b6154a618ed5c0ca42448368e66d5378e1d609ecb",
    "tau-^3 W(10) p=5": "ff7705c2f4270daa99af82b1aaa06f89cffe3869acbc4cac19097845bfb366dc",
    "cover V(10) p=5": "5262ca885907c7eb388d05cb68ea2343fe8866de0f116cd78e809ab131c1a911",
    "ass V(10) p=5": "f3a220242dc69f61b7ae3c392265fba218e6d3f0ac05ab3f4b4791e3ea80ce80",
    "cover Vo(10) p=5": "2b7a96ed1b4084ceac5e3494c7e0e58c4b9976b2140682fa3a06a7c0560cca36",
    "ass Vo(10) p=5": "a53dd515f04e2e6689b4b9a8b78e1293860cb457e12f5546f926a0623a25be03",
    "tau^3 W(13) p=5": "2d0865e2cab6cbedcc6d8744de9fac8cac9f53e7a08c406c67c09b37f8ab7167",
    "tau-^3 W(13) p=5": "fe2a80d75619614d8bbc426e1ab5ed0de17a7171ad42defbb29e41def783d89c",
    "cover V(13) p=5": "5305fa67c3bdf80b2bf2b680ba13cf5470dc2fd6a319adcdc61c87cd9d25f928",
    "ass V(13) p=5": "c5d6531bd1368f88628f7af4ae19e3955c8b75666f6fc039995227effefc8b02",
    "cover Vo(13) p=5": "d4b5c666dda49fc8fbc6fb66339bbce4ee7f208f7b0264c831df53f3db279c95",
    "ass Vo(13) p=5": "ccbdeb7e901401258d47f9c4aa88e24474f3d040c62e1199e0949843a992e39f",
    "socle+top degree 3 p=3": "994c075ffe1e12fbd785532ddb6e6f48a771ec0d5aa30d3d804aa4e61492ffe3",
    "socle+top degree 4 p=3": "da6138f3d5a0f412220514465b87f571fab594619b08aec5356008e0583b977a",
    "socle+top degree 5 p=3": "3b03167d6bbbae2446556683dd6dcdba775ce278664e1eb6039b4b15de75a28e",
    "socle+top degree 6 p=3": "10acab15250d1a3660d7811819b918af8948dcbfed1411dcada55fd06cb100a1",
    "socle+top degree 7 p=3": "d9ab53045845e243df271b6cda064acc7b452e85ba44efd00d78f79c8a41691a",
    "socle+top degree 8 p=3": "37be15f14e4f178f21af6a50e5526da2bfc96647f5adf425a29c820f0c13f4ca",
    "socle+top degree 5 p=5": "dd8c5f0defab5ca7d029fcb53c25fb69ff96856f738b7216dcbb0b86e78c70fd",
    "socle+top degree 6 p=5": "a54c233311c9be557b02dee088dcdcb36a8d9dfda6d03cc9ef9b88624c5fff39",
    "socle+top degree 7 p=5": "d3b1de488de2fb0ef001189d760a033adff9fe149784406a9a4919d506695d08",
    "cover outer0 p=3": "1a8886bfb751aecd8114f054f718abe343d16d519d233810c01fed51755bb098",
    "ass outer0 p=3": "f26e144908d328b7e5c85501dc82c809752411997c060418bc566cd07e8c3d70",
    "cover outer1 p=3": "6a1e4e95ae90db1e4ed925b6b66bd2663b10eb0bff673ee0c53fac70ea0e1684",
    "ass outer1 p=3": "f2e8d9c15aeb947fe3c5b66d3b3527f0a4ec6a1e47539154de51b4ae3b2e05e5",
    "cover outer2 p=3": "2a712d144b281fea08af5af91a4fc2db9b8063e3fb4b90a167116f0a3e56ddd8",
    "ass outer2 p=3": "263571b8a0aea4464d07677651b53ba5cf130207409d78b693d7817957b406de",
    "cover outer3 p=3": "bacfd2ff69fe1a2515a900ccf4952593a638ee5d6e757575680fa03cec62fc4d",
    "ass outer3 p=3": "4c4f5062aa854f67720026fda9a76b4fce5b66b894231883812e8de4d2d5d86f",
    "cover outer4 p=3": "07cfa969f555b03e101878613bd981457f4b7308dcf9e0597adecd71c215c8c8",
    "ass outer4 p=3": "2152070309e006f5544fc36d790fdd78bbbb19d72b452c71a430f390109c9bce",
    "cover outer0 p=5": "88b7396c7f3c15467b9009ea435d04979a5a2bfc4a66857f3fbecbbfa5959c13",
    "ass outer0 p=5": "4fbf930698a75c58b083ede962e94c4f5ce50f74d4eae5df73a205978e98d8b5",
    "cover outer1 p=5": "21bf45bbeae23c3b4345e523cb2094ad5ba267daa8b705a39051374a301b8fa7",
    "ass outer1 p=5": "6d7b13f6656c40b5b612d54d18833ca49857d7c8f90f0bf73f4b702016da3f7b",
    "cover outer2 p=5": "b94d10dd6d2c39eb9768b5d7f3b7259b15cd484f5a484ba3c6d0293270a6abad",
    "ass outer2 p=5": "a0e22dfa5fd602ced1ddad451236ea3f6ad2eb1052d2ed3d6864550a517b6a48",
    "cover outer3 p=5": "0a446bb904d47e0bd9c2425b25ce9c7257b81ed0bcfc7af626468d797a08eeec",
    "ass outer3 p=5": "d50f23699d420c28ecd3dd875ec9fdd1bc11da6f714c157329133602bb0a365d",
    "cover outer4 p=5": "dbbbe812a6c33747e822e85a7d20b8a279a22a074ebf6925145828a1b782f49d",
    "ass outer4 p=5": "adb533fcc5286a36633dfb0aa39e4f70d2b6a3616b30935d6744abe52020c200",
    "demo block_quiver_demo": "5f4d65f674cb3e42a6bd1a9fce40f8a60396607debc754ad6c9cd9188ff6308c",
    "demo torsion_functor_demo": "f132540eb757519d56242b7bb1f49efac66abc30ff8138e53d58d784ae14bfa4",
    "demo borel_demo": "0b81c6a34780245ce6f58451f88d1ab4870b15c9c1c84968eca68c8ffe3e76d6",
    "grq --p 3 --seed 0 schur --d 9 --drop-projective-injective": "b1f84d12d9444d167501e3c29c1b4f828c8bafd6caf52bfdd662e8cfe58e5b9f",
    "grq --p 5 --seed 0 borel --r 2 --d 8": "59147fd534687144cf88698e35caea5906cf6604a9c6a813592ba61f61e21b26",
    "grq --p 3 --seed 0 borel --r 2 --d 8": "c336bd209a123ce545274e9516e1d7417c72236e924ee2ec516df1db05a12a92",
    "grq --p 3 --seed 0 ar V(4) --max-ql 1 --max-tau 1 --emit dot": "c3826e1fe9f5209a97aa427a1733b853e4c43d1bbe70d25e706872b0c822beb2",
    "grq --p 5 --seed 0 schur --d 12 --drop-projective-injective": "0d57f399c4dd06b1384b0a1fa3698fb1a5679fcfc9e3ddf72c0df52605ff208a",
}


@pytest.mark.parametrize("p,d", WALK_DEGREES, ids=lambda v: str(v))
def test_tau_walks(p, d):
    for sign, arrow in ((1, "tau"), (-1, "tau-")):
        key = f"{arrow}^{STEPS} W({d}) p={p}"
        assert walk_digest(p, d, sign) == PINNED[key]


@pytest.mark.parametrize("p,d", WALK_DEGREES, ids=lambda v: str(v))
def test_covers_and_almost_split_sequences(p, d):
    for fam, build in FAMILIES.items():
        m = build(p, d)
        assert cover_digest(m) == PINNED[f"cover {fam}({d}) p={p}"]
        assert almost_split_digest(m) == PINNED[f"ass {fam}({d}) p={p}"]


@pytest.mark.parametrize("p,d", SOCLE_TOP_DEGREES, ids=lambda v: str(v))
def test_socles_and_tops_of_candidates(p, d):
    assert socle_top_digest(p, d) == PINNED[f"socle+top degree {d} p={p}"]


@pytest.mark.parametrize("p", BOREL_PRIMES)
def test_borel_covers_and_almost_split_sequences(p):
    for i, m in enumerate(outer_tensors(p)):
        assert cover_digest(m) == PINNED[f"cover outer{i} p={p}"]
        assert almost_split_digest(m) == PINNED[f"ass outer{i} p={p}"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output(name):
    assert demo_digest(name) == PINNED[f"demo {name}"]


@pytest.mark.parametrize("command", CLI_RUNS)
def test_cli_output(command):
    assert cli_digest(command) == PINNED[f"grq {command}"]


if __name__ == "__main__":
    for name, value in current_digests().items():
        print(f'    "{name}": "{value}",')
