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
        "summary.json": "0ad3f7f2da940a15866ee8ac852819077b3b85f99539e332fc8c51787a198c5a",
        "rounds.log": "f24163fe4568c237c989baeeb91f51fdde8a2585aa8aea71703f3ab94233d71f",
        "per_client.csv": "e47d5185bae35aa3b63c4a41bbae746f355a40706ff6ca1f262d42bfa32be2a7",
        "acc_matrix_0.csv": "2435a8190859199ed99c142c16f3dc3a05a3956ac80de23123c4d1fbecf7958a",
        "acc_matrix_1.csv": "2435a8190859199ed99c142c16f3dc3a05a3956ac80de23123c4d1fbecf7958a",
        "memory_0.csv": "7617c18d202474a73350cef84e0d8c3857e72b5ab32f79fad30e696fcafd2a6e",
        "memory_1.csv": "1a66888ef68ba36b2486370535f25ef9f657e7eab9a3b7cfc6e1104ade67f253",
    },
    "bottom_k_bi": {
        "summary.json": "92ac8051b62ae94dd91e68779b00eac55c6315c9bf030675b0d771fe8c458c33",
        "rounds.log": "49b8ab32b5c7ce973dcd61c72d3df9a5b0d973a70b88c18d382ae67c83529192",
        "per_client.csv": "2f5e1c519b6cbd5a5d8dcdddc2c383f9e14fab5d66f467ed46bf95bce3c2bae2",
        "acc_matrix_0.csv": "461d7201fbd055aa7e2e935ba3d0051f9ba490e6ad9719e64e562918152a09d9",
        "acc_matrix_1.csv": "461d7201fbd055aa7e2e935ba3d0051f9ba490e6ad9719e64e562918152a09d9",
        "memory_0.csv": "82696149bd103136b1b36f5ffa14f94e46537357f92c2309ec35d5a149ba5c8f",
        "memory_1.csv": "dc502c51bc130b271fe7c61c091ec4771a931cb6aee4560aab46ea35528ad887",
    },
    "bottom_k_en_mask": {
        "summary.json": "1e0bbca746318763e3bfde7c7e90aee85de8ded173932c52ea0e6cee72c09036",
        "rounds.log": "8ed66a32c2d4fd9aa05f5e56546bb9258db76dfb2dceb47aebda64923231e6fd",
        "per_client.csv": "7ce3710d4ccd60a586b9ac464fbbc57ee4de6e61fbbda332f542610cf98a0241",
        "acc_matrix_0.csv": "5bfaaa6252abc761399cf614abb3679a2970dcb04c7368a3807c2e289f7d700e",
        "acc_matrix_1.csv": "5bfaaa6252abc761399cf614abb3679a2970dcb04c7368a3807c2e289f7d700e",
        "memory_0.csv": "9fbe4554056e2884a1bfd3b2de27a30060003c38bfc692f2a6573cfe7ff1715a",
        "memory_1.csv": "4575dbea5b4620c1d9ae15aca6e2b3574cb1377811a96041cf57f31bd4ff7c27",
    },
    "bottom_k_lc": {
        "summary.json": "9cdea88b81b163a435fd2b2d7ccbb8457fdf1eb59401e12e30da7e04936f8910",
        "rounds.log": "fa21d32aed1ea8caaacec9ff3a0b73495b8d3d616497e599ea8c570b1b143f6e",
        "per_client.csv": "2f5e1c519b6cbd5a5d8dcdddc2c383f9e14fab5d66f467ed46bf95bce3c2bae2",
        "acc_matrix_0.csv": "89c53c9648511cfa8d4f418149b362da8db7af8ae072d545cf17666f0349e48a",
        "acc_matrix_1.csv": "89c53c9648511cfa8d4f418149b362da8db7af8ae072d545cf17666f0349e48a",
        "memory_0.csv": "8aa8cbdfb0f99a54e7d6aa16c3a76756c56d56561c5d158a2ed09e64c1e64ad0",
        "memory_1.csv": "acf373cb8b33bbdeb13db09bc90f628f3d510228df383620900a3c5d0d72f441",
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
        "summary.json": "e978cb0e549ccd5e47aaff5b386caaaec9fb3c3cef3dfee89ee2532d4989b059",
        "rounds.log": "2bdf20fe9e684bf648cddd763799c5c4671e5414de0ca87ad7aebd35d90ea0a8",
        "per_client.csv": "2f5e1c519b6cbd5a5d8dcdddc2c383f9e14fab5d66f467ed46bf95bce3c2bae2",
        "acc_matrix_0.csv": "461d7201fbd055aa7e2e935ba3d0051f9ba490e6ad9719e64e562918152a09d9",
        "acc_matrix_1.csv": "461d7201fbd055aa7e2e935ba3d0051f9ba490e6ad9719e64e562918152a09d9",
        "memory_0.csv": "242438aaa65d7e9f9c8edb2a786d9f58147dbbd97f398988bea997a84d992b99",
        "memory_1.csv": "2d408e1105910f62d8d21c18617ed5fe4ec8aaaf759596d7cf46fbd2589b9e90",
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
        "summary.json": "0325068d30642fba1607cf4a09c5a961730d87f79c629777ab2b627d8594f6d5",
        "rounds.log": "a045b8962a1e1299bdd115c4c01f867937f55a226eac6624dc32bb05cd71dfee",
        "per_client.csv": "7dcada511fbe08023d8ab659fe9262f25614263cff2ac538149526d67b5ff1f2",
        "acc_matrix_0.csv": "bce81e40682373f94d8087874b5710e599e4f4fa18cb6d4ddc4923afb1980819",
        "acc_matrix_1.csv": "bce81e40682373f94d8087874b5710e599e4f4fa18cb6d4ddc4923afb1980819",
        "memory_0.csv": "2c2c72d91829249d67c07ee93f7ca62112a347e7e14b9eed628635cba9272b4d",
        "memory_1.csv": "67e1a56241c2677a8621aca94f0d3addb2ba34ddee5ded94d962a728807d0f49",
    },
    "top_k_rc": {
        "summary.json": "155252950343ccc0c8f9c43a8438b2658ae3b2e3ddaa34865431f96602caa34e",
        "rounds.log": "f19e96467905f951aa163b23ccba61fbe571ef835076b220d5e46d63750e2309",
        "per_client.csv": "8b5decc6fe969f1a2119145f17076c9dd58f16b3b0cef2a0736a191f4abc0495",
        "acc_matrix_0.csv": "8f18a39ac7476f777010dc9a4b6703b1bd05e1445dcf11f4ab2a7212344aa207",
        "acc_matrix_1.csv": "8f18a39ac7476f777010dc9a4b6703b1bd05e1445dcf11f4ab2a7212344aa207",
        "memory_0.csv": "544ad2ded1f8943307b403c1e5ebcd2751d45fbec88dfa3a98e78eec7fd77ac8",
        "memory_1.csv": "46846c03bfa3013da18067b931e16a9f5be900c5f3d2be45efc756b1a4058dba",
    },
    "two_hidden_bi": {
        "summary.json": "d4e301d009ccabc1e1e9aa46cc441c1a446e3f41147736ac90fc3f5a194bfada",
        "rounds.log": "4a6257e02a48538768fa56c6b870240a7b200821602243ab1548b719bb2163d0",
        "per_client.csv": "39bdf20a144917440f395d87dc4fe25e94e05fd6472217a45a80410d9946691c",
        "acc_matrix_0.csv": "142f3a9853b1218e0c0462cbb2250a16349c3e2b40d3de259f11c54b3b8a1623",
        "acc_matrix_1.csv": "142f3a9853b1218e0c0462cbb2250a16349c3e2b40d3de259f11c54b3b8a1623",
        "memory_0.csv": "28f0883c3f05ce14cb613f07c94d13249f840314162e596e05e56306bd569e04",
        "memory_1.csv": "0dc660d9efc91b266fb01009499cc58da33b4593987f519e2032369a5e004627",
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


def _count_scoring(monkeypatch):
    """Counters of ``bottom_k_bi``'s scoring work, filled as the run goes.

    ``calls`` counts ``score_sample`` calls and ``blocks`` scored blocks
    (``_fresh`` calls), each split into new rows and stored rows (made
    inside ``update_memory``); ``forwards`` counts ``forward_logits`` calls
    and rows, and ``drawn`` the rows passed to ``perturb_features``.
    """
    counts = {
        "calls": {"new": 0, "stored": 0},
        "blocks": {"new": 0, "stored": 0},
        "forwards": {"calls": 0, "rows": 0},
        "drawn": 0,
    }
    inside = []

    def score_sample(*args):
        counts["calls"]["stored" if inside else "new"] += 1
        return original_score(*args)

    def fresh(self, rows):
        counts["blocks"]["stored" if inside else "new"] += 1
        return original_fresh(self, rows)

    def perturb_features(x, spec):
        counts["drawn"] += len(x)
        return original_perturb(x, spec)

    def forward_logits(params, config, features):
        counts["forwards"]["calls"] += 1
        counts["forwards"]["rows"] += len(features)
        return original_forward(params, config, features)

    def update_memory(*args, **kwargs):
        inside.append(True)
        try:
            return original_update(*args, **kwargs)
        finally:
            inside.pop()

    original_score, original_update = runner.score_sample, runner.update_memory
    original_fresh, original_forward = runner._ClientWorker._fresh, uncertainty.forward_logits
    original_perturb = uncertainty.perturb_features
    monkeypatch.setattr(runner, "score_sample", score_sample)
    monkeypatch.setattr(runner, "update_memory", update_memory)
    monkeypatch.setattr(runner._ClientWorker, "_fresh", fresh)
    monkeypatch.setattr(uncertainty, "perturb_features", perturb_features)
    monkeypatch.setattr(uncertainty, "forward_logits", forward_logits)
    config = ExperimentConfig(**{**_BASE, **CASES["bottom_k_bi"]})
    run_experiment(config)
    return config, counts


def test_bottom_k_bi_score_count(monkeypatch):
    """``bottom_k_bi``'s scoring work: rows scored, blocks forwarded, forward calls and rows.

    It scores 144 new rows and 204 stored rows afresh, one ``score_sample``
    call per row. Their copies are forwarded in one ``forward_logits`` call
    per scored block: the 48 new batches and the 52 stored classes that
    retention compared, so 100 calls of P x (144 + 204) = 1,044 rows. These
    counts are the same as when a stored class's scores came from a deferred
    call made only when retention compared the class, but that schedule drew
    copies of 412 rows to score 348. When each row's copies were forwarded
    alone, the same 1,044 rows took 348 calls.
    """
    config, counts = _count_scoring(monkeypatch)
    assert counts["calls"] == {"new": 144, "stored": 204}
    assert counts["blocks"] == {"new": 48, "stored": 52}
    assert counts["forwards"] == {"calls": 100, "rows": config.perturbation_count * (144 + 204)}


def test_bottom_k_bi_scores_every_drawn_copy(monkeypatch):
    """Every row whose perturbed copies ``bottom_k_bi`` draws is scored: one ``score_sample`` call per drawn row.

    Under deferred calls, copies were drawn at every offer for each touched
    class's stored rows, and 412 rows were drawn for 348 scored.
    """
    _, counts = _count_scoring(monkeypatch)
    assert counts["drawn"] == sum(counts["calls"].values())
