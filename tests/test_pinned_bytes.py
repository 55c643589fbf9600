"""The JSON bytes of derived modules and maps, pinned by sha256.

Covers, tau walks and almost split sequences depend on every choice the
library makes (Hom bases, isomorphisms, kernels); a faster construction
must reproduce them byte for byte.  The digests were recorded before the
isomorphism test and the sl2 projective cover were rewritten; run this file
as a script to print the current ones.
"""

import hashlib
import json

import pytest

from grquiver import constructions as C
from grquiver import homological as H

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


FAMILIES = {"V": C.weyl_hat, "Vo": C.weyl_hat_dual}


def current_digests() -> dict[str, str]:
    out = {}
    for p, d in WALK_DEGREES:
        for sign, arrow in ((1, "tau"), (-1, "tau-")):
            out[f"{arrow}^{STEPS} W({d}) p={p}"] = walk_digest(p, d, sign)
        for fam, build in FAMILIES.items():
            m = build(p, d)
            out[f"cover {fam}({d}) p={p}"] = cover_digest(m)
            out[f"ass {fam}({d}) p={p}"] = almost_split_digest(m)
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


if __name__ == "__main__":
    for name, value in current_digests().items():
        print(f'    "{name}": "{value}",')
