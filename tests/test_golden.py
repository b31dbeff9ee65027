"""Golden bytes: the emitted reports and final memory dumps of small seed-0 runs, pinned by sha256.

Each case is a two-client, three-task run where communication rounds fire
(burn_in=1, q=2), so scoring, admission, replay, aggregation, smoothing and
broadcast all shape the bytes. ``memory_<k>.csv`` is client k's buffer as
``dump_csv`` writes it at the end of the run, so the content and order of
every stored row is pinned too. A refactor must keep every hash; only a
change that declares a new baseline may re-record them.
"""

import hashlib

import pytest

from fedreplay.config import ExperimentConfig
from fedreplay.memory import dump_csv
from fedreplay.runner import emit_report, run_experiment

_BASE = dict(
    clients=2,
    tasks=3,
    batch_size=3,
    test_split=0.2,
    seed=0,
    classes=6,
    samples_per_class=30,
    dim=4,
    center_spread=2.0,
    cluster_sigma=1.0,
    memory_capacity=16,
    memory_policy="bottom_k",
    uncertainty_metric="bi",
    perturbation_count=3,
    burn_in=1,
    q=2,
    hidden_dims=(8,),
    learning_rate=0.5,
)

CASES = {
    "bottom_k_bi": {},
    "random": {"memory_policy": "random"},
    "class_balanced_random": {"memory_policy": "class_balanced_random"},
    "top_k_lc_mask": {
        "memory_policy": "top_k",
        "uncertainty_metric": "lc",
        "perturbation_kind": "mask",
        "mask_fraction": 0.25,
    },
    "class_weighted": {"aggregation": "class_weighted"},
    "fedprox": {"aggregation": "fedprox", "fedprox_mu": 0.1},
    "adam_reset": {"optimizer": "adam", "learning_rate": 0.05, "reset_optimizer_on_sync": True},
    "bottom_k_ms": {"uncertainty_metric": "ms"},
    "top_k_rc": {"memory_policy": "top_k", "uncertainty_metric": "rc"},
    "bottom_k_en_mask": {"uncertainty_metric": "en", "perturbation_kind": "mask", "mask_fraction": 0.25},
    "two_hidden_bi": {"hidden_dims": (8, 5)},
}

FILES = (
    "summary.json",
    "rounds.log",
    "per_client.csv",
    "acc_matrix_0.csv",
    "acc_matrix_1.csv",
    "memory_0.csv",
    "memory_1.csv",
)

GOLDEN = {
    "adam_reset": {
        "summary.json": "162fdbf4cb5ca18a7bf30f487cdf1c220f1b373413bd1d2a95545742909bdb7c",
        "rounds.log": "9ef1a9c25fb99751926bab060bdd914f1993c2a045328693cf0cc037bbf56d82",
        "per_client.csv": "8b92b4629c255d96a522e88044a90a88cf4055aaf9a568d052a00bfcea9bf410",
        "acc_matrix_0.csv": "ab8db05d59bacb6cb29b7cb3d348901cee5a09a7b10f086303db7086b7910eb5",
        "acc_matrix_1.csv": "ab8db05d59bacb6cb29b7cb3d348901cee5a09a7b10f086303db7086b7910eb5",
        "memory_0.csv": "616856a15ad5e63ee4f0b5dda0a8052bf16a312f9f4b20eca9ef3f195c524396",
        "memory_1.csv": "3a66d4eac47c8f222734de9367f4f90f9e9903ec1a7ac05dd455558edfe77123",
    },
    "bottom_k_bi": {
        "summary.json": "fe6db1ae7d1042d22578e8c6fa7a9dc3f05fb915f3591f107379bd8bbd662fd9",
        "rounds.log": "7c63faf612df528b950401f8dac5224e72dedb90145a2ec3ee1b059fc6a33c7f",
        "per_client.csv": "4fa5618dcb9be21824844e488288abbde7e16f628ae97cabcb7bb0469267782f",
        "acc_matrix_0.csv": "238c678670f4eb16ab3dc6e35214590b57d0738417874634fda508b5cc35cd45",
        "acc_matrix_1.csv": "238c678670f4eb16ab3dc6e35214590b57d0738417874634fda508b5cc35cd45",
        "memory_0.csv": "c28602da71b95faaadfd4e2ed4034f3f331d861ade32a56d69ef42efd1241a85",
        "memory_1.csv": "d8728e8ef2d7249b8fa97207b27ea3b946f6be63a93bbe64d647a43b7172847d",
    },
    "bottom_k_ms": {
        "summary.json": "5d83fdba15dd210c0674dfbd1c73a4d3fe7d9de6543a1f17b25d5abb4fdf709f",
        "rounds.log": "0d860835d1040a0f0190f405df02eba222de4086cd461334a57390ad617ada45",
        "per_client.csv": "29e28f7ce3217764fed8b2b8c2d3a375c8040baf21c10e2f1483c0988d7a2625",
        "acc_matrix_0.csv": "2c9a99e4a340a9cda8224f6191975c6ef18579a13aa66149a0330475ae94171d",
        "acc_matrix_1.csv": "2c9a99e4a340a9cda8224f6191975c6ef18579a13aa66149a0330475ae94171d",
        "memory_0.csv": "4617e420c5456dc3f0950068091c4ae09625de46d17c9db4fcfbf523f5c8b08a",
        "memory_1.csv": "7e605d57fae480621c2a177069ed56608f464311c18780abf45b11e66ab27dc5",
    },
    "bottom_k_en_mask": {
        "summary.json": "f8ec3593ed9d69046fdd4db26c41dc058d4f88e40547f2b3c913170d55030a24",
        "rounds.log": "3e54e189e0ac5f54c373b5768c22c5817087ed4b5fb9042e8ed7d70309abe8c4",
        "per_client.csv": "fdfbd8de7edcedbdb4975f9b8e07cc1cde7a8525007af13354398d5f7eb2dbab",
        "acc_matrix_0.csv": "fb24aebb47d5321be43028fb2b8d333c3c4a1a177a2d9db9c3b6d8709559b5a2",
        "acc_matrix_1.csv": "fb24aebb47d5321be43028fb2b8d333c3c4a1a177a2d9db9c3b6d8709559b5a2",
        "memory_0.csv": "6916c9b0c1406fffb2d6d40e3fcc7e18823f2f2e7936111a90a5ae0d99db0b38",
        "memory_1.csv": "417e9a319bd1b0fdd565ff979bc7e9e81dbf9395d431e4b37dc13fbf4c002d97",
    },
    "class_balanced_random": {
        "summary.json": "bc1e9b5edbaa9da819ffcec1a363daf6b9515d51c6080f1ee77864b4658172d8",
        "rounds.log": "88677ef7933ab772480b2ec1baf372d289cc3093e463a9a1fae9c8c854aa2b0f",
        "per_client.csv": "2f5e1c519b6cbd5a5d8dcdddc2c383f9e14fab5d66f467ed46bf95bce3c2bae2",
        "acc_matrix_0.csv": "89c53c9648511cfa8d4f418149b362da8db7af8ae072d545cf17666f0349e48a",
        "acc_matrix_1.csv": "89c53c9648511cfa8d4f418149b362da8db7af8ae072d545cf17666f0349e48a",
        "memory_0.csv": "223b78cc4f099e5386189487544647ead51e1205915fe1451940ec289413f731",
        "memory_1.csv": "4b5268f9492e5e36bda9222376086ebb77145444479cdc0474c6c1aeeee1c2f6",
    },
    "class_weighted": {
        "summary.json": "9bc540181d6ff63d2d059011b6f05d46fb843b15c174adb1e1eec911ee8c8344",
        "rounds.log": "3ec52f3640615bf8945e21b619ddfae0c9812ef028339154b18c134e2066f1d0",
        "per_client.csv": "ef09d6fed4d014bbeeed32d7300e189da5b022f29c0cd446acab63d27771182a",
        "acc_matrix_0.csv": "6a9f66b52b2f4bc8636dad5ecf857c7f72eb7bc1ada57436dbc314adedea6019",
        "acc_matrix_1.csv": "6a9f66b52b2f4bc8636dad5ecf857c7f72eb7bc1ada57436dbc314adedea6019",
        "memory_0.csv": "ef8c29b132c7743d443e855907d497274b747c770d4a5662977fc792e67ad178",
        "memory_1.csv": "01ec102bf710bbea28cf55ba75b05afda4f72a846d2b89a8fa3a10bd22e91413",
    },
    "fedprox": {
        "summary.json": "7e35b045b6ab899550cd96074bfe88c16d207df94fdd0f1a2a2505838e11f68d",
        "rounds.log": "702dd9018d2c91c4344b1c87757ea6febaa4352af1ff1af620eb33ce336b9a37",
        "per_client.csv": "4fa5618dcb9be21824844e488288abbde7e16f628ae97cabcb7bb0469267782f",
        "acc_matrix_0.csv": "b1e6295c36eb642a3da4771b8993fb83091330ea3688400ec47e73dc41393c39",
        "acc_matrix_1.csv": "b1e6295c36eb642a3da4771b8993fb83091330ea3688400ec47e73dc41393c39",
        "memory_0.csv": "cb76db93b6afe2472c2db203e9ddeb2bf2f9fa536bc81cc2fd68b2a568ce126f",
        "memory_1.csv": "e7da759abcdab3f240032abe5da719703a0d8b88ebeccf364c70a3fd31194944",
    },
    "random": {
        "summary.json": "714d18747c7c406172099e834ebca5cd50e6b5e5e759951dfdb0900951cf1e4d",
        "rounds.log": "51447eb6846b1b9d3802e2b4a78c18bbac99047d6e2ae5738347d1330babfac4",
        "per_client.csv": "fdfbd8de7edcedbdb4975f9b8e07cc1cde7a8525007af13354398d5f7eb2dbab",
        "acc_matrix_0.csv": "fb24aebb47d5321be43028fb2b8d333c3c4a1a177a2d9db9c3b6d8709559b5a2",
        "acc_matrix_1.csv": "fb24aebb47d5321be43028fb2b8d333c3c4a1a177a2d9db9c3b6d8709559b5a2",
        "memory_0.csv": "5b0bfecfcf54bf09c90e593ef4db3ef579cb7352c0fe710c4a7a5e92365b10af",
        "memory_1.csv": "57d31466dce72b4fa257b0ae949bbfa433832a6f4537b9f9bd03270e979e0b8d",
    },
    "top_k_lc_mask": {
        "summary.json": "bf40900ab2217680c6edbfd33a61101c1b6c9d9bf71719b88842f8571571e657",
        "rounds.log": "2b2bde264c7d5bda842a91dc9ed379262be961bcab58be61b521b530ee102af0",
        "per_client.csv": "8b5decc6fe969f1a2119145f17076c9dd58f16b3b0cef2a0736a191f4abc0495",
        "acc_matrix_0.csv": "8f18a39ac7476f777010dc9a4b6703b1bd05e1445dcf11f4ab2a7212344aa207",
        "acc_matrix_1.csv": "8f18a39ac7476f777010dc9a4b6703b1bd05e1445dcf11f4ab2a7212344aa207",
        "memory_0.csv": "38efbbbd7efa5f3808dc8aa7ec65d3b435e6bf37609a309ce40c8308b8d1d1af",
        "memory_1.csv": "aad9aeb01a9fed544aa0791e76fefa61ef502f7cb4f5928bc44c42ee200e8a6a",
    },
    "top_k_rc": {
        "summary.json": "14397678f9d91d296fe77cebf5bad2ea50dbbc1e3ebc62fc115a853694212d8c",
        "rounds.log": "1bee6a9ec3360b333999b712ce125a2e4f47c5d3f2088a1c3a59104a24db5be0",
        "per_client.csv": "8b5decc6fe969f1a2119145f17076c9dd58f16b3b0cef2a0736a191f4abc0495",
        "acc_matrix_0.csv": "8f18a39ac7476f777010dc9a4b6703b1bd05e1445dcf11f4ab2a7212344aa207",
        "acc_matrix_1.csv": "8f18a39ac7476f777010dc9a4b6703b1bd05e1445dcf11f4ab2a7212344aa207",
        "memory_0.csv": "8bafeea65bbdc22b63c615b8b1224c2155360dd2bcf7cc48fedcf9ae801517dd",
        "memory_1.csv": "77de4b1e112ddc01a8698d45908aa07e10fa7be34fcaef3a3b37a16781432b36",
    },
    "two_hidden_bi": {
        "summary.json": "20ddb9160de3b0aabf4209393f52a2a13065e6cdeffd3682a8c02b938c2a5d48",
        "rounds.log": "c6a002ca446b150e2be2e31fb4211e46b173408ae78006cdd44b38c89644826d",
        "per_client.csv": "365a10ee3d0b0bb749d4ca4f4d170181b3462a4123873242e04973dd22f0e78a",
        "acc_matrix_0.csv": "49ce304867b8a04763a182fa2372e44a732f93b463218a8a8aef943ea03f8203",
        "acc_matrix_1.csv": "49ce304867b8a04763a182fa2372e44a732f93b463218a8a8aef943ea03f8203",
        "memory_0.csv": "68ef168e5e327c50b3357345c0c75ce59e45bc3385c694f4951aec4dd15991b0",
        "memory_1.csv": "f1f55227c72b389fbaa167df1a2b2f25d9dc4340960800a17048095d6ffd8e40",
    },
}


def _hashes(name, out):
    result = run_experiment(ExperimentConfig(**{**_BASE, **CASES[name]}))
    emit_report(result, out)
    for k, buffer in enumerate(result.buffers):
        dump_csv(buffer, out / f"memory_{k}.csv")
    assert result.round_log, "the golden configs must fire communication rounds"
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in FILES}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, tmp_path):
    assert _hashes(name, tmp_path / name) == GOLDEN[name]
