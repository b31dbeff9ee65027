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

from fedreplay import runner, uncertainty
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
    "adam_reset": {"optimizer": "adam", "learning_rate": 0.05, "reset_optimizer_on_sync": True},
    "bottom_k_lc": {"uncertainty_metric": "lc"},
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
        "summary.json": "c5f57c12637a5ea95b1317af1f1fa146a31e8bb4f704ca8844d048a8c5db79ed",
        "rounds.log": "9ef1a9c25fb99751926bab060bdd914f1993c2a045328693cf0cc037bbf56d82",
        "per_client.csv": "8b92b4629c255d96a522e88044a90a88cf4055aaf9a568d052a00bfcea9bf410",
        "acc_matrix_0.csv": "ab8db05d59bacb6cb29b7cb3d348901cee5a09a7b10f086303db7086b7910eb5",
        "acc_matrix_1.csv": "ab8db05d59bacb6cb29b7cb3d348901cee5a09a7b10f086303db7086b7910eb5",
        "memory_0.csv": "616856a15ad5e63ee4f0b5dda0a8052bf16a312f9f4b20eca9ef3f195c524396",
        "memory_1.csv": "3a66d4eac47c8f222734de9367f4f90f9e9903ec1a7ac05dd455558edfe77123",
    },
    "bottom_k_bi": {
        "summary.json": "10f745b2c6e42a41d92f81c24cf8a920b9e7c15ae58de664c7ab8f960768dcfa",
        "rounds.log": "7c63faf612df528b950401f8dac5224e72dedb90145a2ec3ee1b059fc6a33c7f",
        "per_client.csv": "4fa5618dcb9be21824844e488288abbde7e16f628ae97cabcb7bb0469267782f",
        "acc_matrix_0.csv": "238c678670f4eb16ab3dc6e35214590b57d0738417874634fda508b5cc35cd45",
        "acc_matrix_1.csv": "238c678670f4eb16ab3dc6e35214590b57d0738417874634fda508b5cc35cd45",
        "memory_0.csv": "c28602da71b95faaadfd4e2ed4034f3f331d861ade32a56d69ef42efd1241a85",
        "memory_1.csv": "d8728e8ef2d7249b8fa97207b27ea3b946f6be63a93bbe64d647a43b7172847d",
    },
    "bottom_k_lc": {
        "summary.json": "4f66233c48adce13e0005fefb1a667c8327774ff1ed908801d4f2c7aa0028d34",
        "rounds.log": "ea83cfdc77b181c0994975ebb3b1afd5392e02b4dc0bffffd6fb6fd5ce61fb7f",
        "per_client.csv": "4fa5618dcb9be21824844e488288abbde7e16f628ae97cabcb7bb0469267782f",
        "acc_matrix_0.csv": "238c678670f4eb16ab3dc6e35214590b57d0738417874634fda508b5cc35cd45",
        "acc_matrix_1.csv": "238c678670f4eb16ab3dc6e35214590b57d0738417874634fda508b5cc35cd45",
        "memory_0.csv": "d4a576d9cb1b08b21543698c15f6146d05f6cc3e4d241de480d7c587ce0089d7",
        "memory_1.csv": "9970b6d766af1abfd58a243cab70fb5aef9774015393832bd1d4b57327c69918",
    },
    "bottom_k_en_mask": {
        "summary.json": "32f46d52ed4decd1516cca8d92e7c84817fca9e08d83ef6504131653a52bdecf",
        "rounds.log": "3e54e189e0ac5f54c373b5768c22c5817087ed4b5fb9042e8ed7d70309abe8c4",
        "per_client.csv": "fdfbd8de7edcedbdb4975f9b8e07cc1cde7a8525007af13354398d5f7eb2dbab",
        "acc_matrix_0.csv": "fb24aebb47d5321be43028fb2b8d333c3c4a1a177a2d9db9c3b6d8709559b5a2",
        "acc_matrix_1.csv": "fb24aebb47d5321be43028fb2b8d333c3c4a1a177a2d9db9c3b6d8709559b5a2",
        "memory_0.csv": "6916c9b0c1406fffb2d6d40e3fcc7e18823f2f2e7936111a90a5ae0d99db0b38",
        "memory_1.csv": "417e9a319bd1b0fdd565ff979bc7e9e81dbf9395d431e4b37dc13fbf4c002d97",
    },
    "class_balanced_random": {
        "summary.json": "bafba3814205133ec88a80f05c921f2947a8be57b8acfc1998aee158eb3305de",
        "rounds.log": "88677ef7933ab772480b2ec1baf372d289cc3093e463a9a1fae9c8c854aa2b0f",
        "per_client.csv": "2f5e1c519b6cbd5a5d8dcdddc2c383f9e14fab5d66f467ed46bf95bce3c2bae2",
        "acc_matrix_0.csv": "89c53c9648511cfa8d4f418149b362da8db7af8ae072d545cf17666f0349e48a",
        "acc_matrix_1.csv": "89c53c9648511cfa8d4f418149b362da8db7af8ae072d545cf17666f0349e48a",
        "memory_0.csv": "223b78cc4f099e5386189487544647ead51e1205915fe1451940ec289413f731",
        "memory_1.csv": "4b5268f9492e5e36bda9222376086ebb77145444479cdc0474c6c1aeeee1c2f6",
    },
    "class_weighted": {
        "summary.json": "a1957118d50a8f6e5de98c1922c3c63ad27f874a74b012adbdc9a855cc931010",
        "rounds.log": "3ec52f3640615bf8945e21b619ddfae0c9812ef028339154b18c134e2066f1d0",
        "per_client.csv": "ef09d6fed4d014bbeeed32d7300e189da5b022f29c0cd446acab63d27771182a",
        "acc_matrix_0.csv": "6a9f66b52b2f4bc8636dad5ecf857c7f72eb7bc1ada57436dbc314adedea6019",
        "acc_matrix_1.csv": "6a9f66b52b2f4bc8636dad5ecf857c7f72eb7bc1ada57436dbc314adedea6019",
        "memory_0.csv": "ef8c29b132c7743d443e855907d497274b747c770d4a5662977fc792e67ad178",
        "memory_1.csv": "01ec102bf710bbea28cf55ba75b05afda4f72a846d2b89a8fa3a10bd22e91413",
    },
    "random": {
        "summary.json": "f296ea87c3447fbc4c35a7054837878783d9d790fb01b830a01ec4172f6c3544",
        "rounds.log": "51447eb6846b1b9d3802e2b4a78c18bbac99047d6e2ae5738347d1330babfac4",
        "per_client.csv": "fdfbd8de7edcedbdb4975f9b8e07cc1cde7a8525007af13354398d5f7eb2dbab",
        "acc_matrix_0.csv": "fb24aebb47d5321be43028fb2b8d333c3c4a1a177a2d9db9c3b6d8709559b5a2",
        "acc_matrix_1.csv": "fb24aebb47d5321be43028fb2b8d333c3c4a1a177a2d9db9c3b6d8709559b5a2",
        "memory_0.csv": "5b0bfecfcf54bf09c90e593ef4db3ef579cb7352c0fe710c4a7a5e92365b10af",
        "memory_1.csv": "57d31466dce72b4fa257b0ae949bbfa433832a6f4537b9f9bd03270e979e0b8d",
    },
    "top_k_lc_mask": {
        "summary.json": "4995cfa9711cf8f0b997e771bb121c849669841bebbcff94a1938812e65ea05b",
        "rounds.log": "2b2bde264c7d5bda842a91dc9ed379262be961bcab58be61b521b530ee102af0",
        "per_client.csv": "8b5decc6fe969f1a2119145f17076c9dd58f16b3b0cef2a0736a191f4abc0495",
        "acc_matrix_0.csv": "8f18a39ac7476f777010dc9a4b6703b1bd05e1445dcf11f4ab2a7212344aa207",
        "acc_matrix_1.csv": "8f18a39ac7476f777010dc9a4b6703b1bd05e1445dcf11f4ab2a7212344aa207",
        "memory_0.csv": "38efbbbd7efa5f3808dc8aa7ec65d3b435e6bf37609a309ce40c8308b8d1d1af",
        "memory_1.csv": "aad9aeb01a9fed544aa0791e76fefa61ef502f7cb4f5928bc44c42ee200e8a6a",
    },
    "top_k_rc": {
        "summary.json": "155252950343ccc0c8f9c43a8438b2658ae3b2e3ddaa34865431f96602caa34e",
        "rounds.log": "1bee6a9ec3360b333999b712ce125a2e4f47c5d3f2088a1c3a59104a24db5be0",
        "per_client.csv": "8b5decc6fe969f1a2119145f17076c9dd58f16b3b0cef2a0736a191f4abc0495",
        "acc_matrix_0.csv": "8f18a39ac7476f777010dc9a4b6703b1bd05e1445dcf11f4ab2a7212344aa207",
        "acc_matrix_1.csv": "8f18a39ac7476f777010dc9a4b6703b1bd05e1445dcf11f4ab2a7212344aa207",
        "memory_0.csv": "8bafeea65bbdc22b63c615b8b1224c2155360dd2bcf7cc48fedcf9ae801517dd",
        "memory_1.csv": "77de4b1e112ddc01a8698d45908aa07e10fa7be34fcaef3a3b37a16781432b36",
    },
    "two_hidden_bi": {
        "summary.json": "279d036fb44efc0f917472752b28099ed63fa7be31e3ba10d1bf7779a24b2b6b",
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


def test_bottom_k_bi_score_count(monkeypatch):
    """``bottom_k_bi``'s scoring work: rows scored, blocks forwarded, forward calls and rows.

    It scores 144 new rows and 204 stored rows afresh, one ``score_sample``
    call per row. Their copies are forwarded in one ``forward_logits`` call
    per scored block: the 48 new batches and the 52 stored classes whose
    deferred scores were read, so 100 calls of P x (144 + 204) = 1,044 rows.
    When each row's copies were forwarded alone, the same 1,044 rows took
    348 calls.
    """
    calls = {"new": 0, "stored": 0}
    blocks = {"new": 0, "stored": 0}
    forwards = {"calls": 0, "rows": 0}
    inside = []

    def score_sample(*args):
        calls["stored" if inside else "new"] += 1
        return original_score(*args)

    def fresh(self, rows):
        call = original_fresh(self, rows)

        def made():
            blocks["stored" if inside else "new"] += 1
            return call()

        return made

    def forward_logits(params, config, features):
        forwards["calls"] += 1
        forwards["rows"] += len(features)
        return original_forward(params, config, features)

    def update_memory(*args, **kwargs):
        inside.append(True)
        try:
            return original_update(*args, **kwargs)
        finally:
            inside.pop()

    original_score, original_update = runner.score_sample, runner.update_memory
    original_fresh, original_forward = runner._ClientWorker._fresh, uncertainty.forward_logits
    monkeypatch.setattr(runner, "score_sample", score_sample)
    monkeypatch.setattr(runner, "update_memory", update_memory)
    monkeypatch.setattr(runner._ClientWorker, "_fresh", fresh)
    monkeypatch.setattr(uncertainty, "forward_logits", forward_logits)
    config = ExperimentConfig(**{**_BASE, **CASES["bottom_k_bi"]})
    run_experiment(config)
    assert calls == {"new": 144, "stored": 204}
    assert blocks == {"new": 48, "stored": 52}
    assert forwards == {"calls": 100, "rows": config.perturbation_count * (144 + 204)}
