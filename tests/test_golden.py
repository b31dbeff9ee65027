"""Golden bytes: the emitted reports and final memory dumps of small seed-0 runs, pinned by sha256.

Each case is a three-task run where communication rounds fire (burn_in=1,
q=2), with two clients except ``three_clients``, so scoring, admission,
replay, aggregation, smoothing and broadcast all shape the bytes.
``memory_<k>.csv`` is client k's buffer as ``dump_csv`` writes it at the
end of the run, so the content and order of every stored row is pinned too. A refactor must keep every hash; only a
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
    # beyond two clients a mean's rounding depends on the order its values are added in
    "three_clients": {"clients": 3},
}


def _files(clients):
    """The files a case writes: its reports, then one accuracy matrix and one memory dump per client."""
    per_client = [f"{stem}_{k}.csv" for stem in ("acc_matrix", "memory") for k in range(clients)]
    return ("summary.json", "rounds.log", "per_client.csv", *per_client)


GOLDEN = {
    "adam_reset": {
        "summary.json": "b2f46d7a176bb90c7d5987e8677a0eaddab92765fadf33c4c06f0c5b89beacc3",
        "rounds.log": "d385149d2857bdbba0a5db982b74c864800606fb5e8e1920514c2990fb673d4a",
        "per_client.csv": "f962d9eec84de1aa3f1d78c663ade9a38938e00a2d52a2429380d4b443991525",
        "acc_matrix_0.csv": "b1087400f4460d9a2a81bd9232f73009c58cffd2ed21b5d5d8245374066bcc70",
        "acc_matrix_1.csv": "b1087400f4460d9a2a81bd9232f73009c58cffd2ed21b5d5d8245374066bcc70",
        "memory_0.csv": "4a8b2ba59bf20335371d0bb11803fd51c47cdc5101be10c604777ea6cd568488",
        "memory_1.csv": "e24d2c35382599a64c2bf2443af8e07a1cce3fb52156f440d869f5d2698c560e",
    },
    "bottom_k_bi": {
        "summary.json": "ec90116f17c7083a3cc1da63acc5abc995bd8628bafa6a5fb2917a850cf5b735",
        "rounds.log": "36d98eb9dcdb84e48c4899cdfd1ccd543e2ecbe0e74feaa15abc4c114bcb685a",
        "per_client.csv": "4cad5b3a2599bce55303b551ffab5afe9c17135dc68395b36362c641072cf800",
        "acc_matrix_0.csv": "d8ad987418cd025f3895fbebd483a454c7fc4ce5e5ef236c9fcbcc981bcf7979",
        "acc_matrix_1.csv": "d8ad987418cd025f3895fbebd483a454c7fc4ce5e5ef236c9fcbcc981bcf7979",
        "memory_0.csv": "75a296d02d47c5e66ea6be3d061a42893e9933746fb117e9964e338cf6f087a2",
        "memory_1.csv": "0db723848a343a417359979fc3a3d707164ff391655e39da4b7889a3aa1a9d1c",
    },
    "bottom_k_en_mask": {
        "summary.json": "9ce36a996df490f1b949cf24f693c7d76334655a5f303789ed21dd2171567751",
        "rounds.log": "e2a851aceda8f730f7fb72fae99f57e0420b6d79253394bf8cb136eae1a161df",
        "per_client.csv": "83ad1aa5d7ffde8d8f6cd43689ec9edf478e4f9cf593fc50452292180743968b",
        "acc_matrix_0.csv": "0ca5f0882be2ac889ec3e56263ebbfc802b506ddbbf5992d7d2ddb4f66005377",
        "acc_matrix_1.csv": "0ca5f0882be2ac889ec3e56263ebbfc802b506ddbbf5992d7d2ddb4f66005377",
        "memory_0.csv": "5f154a33d6fb14a4789edfe40e98925b6302fefc21dd63983a6799845afbd50b",
        "memory_1.csv": "74f90734a9c029b18ead2b6fe7e43854b619122a47dd5d1af1d52da75c4da220",
    },
    "bottom_k_lc": {
        "summary.json": "2a3b09f2b5488c540d0c01225d7b1999b3aa4cd2155b04445f19ef92c6c965dc",
        "rounds.log": "4aac411d71a2551947b923dfbd758b89e38de76d7ab8baa6d2eb5a014b584864",
        "per_client.csv": "50b712749523b56954729702f80114176e7e512ddd5d668507092cdd264111f4",
        "acc_matrix_0.csv": "e96a17a3938d219a1e5e35d0ed7e57c1522af0c31e2958ce79f839f47b703c48",
        "acc_matrix_1.csv": "e96a17a3938d219a1e5e35d0ed7e57c1522af0c31e2958ce79f839f47b703c48",
        "memory_0.csv": "917d2266b09f9d8abf3c9f4e4c30e9e26447532bb0be33e21bfe53f311c9f8cc",
        "memory_1.csv": "22d3e3b358dc2cc30b4c965172cd5713db8d55e37dc457fa2560b92084d502df",
    },
    "class_balanced_random": {
        "summary.json": "44c74aca6f937f66b2b9a139b99e25668f281b690bac5b11bd8b898df4529510",
        "rounds.log": "71e6cf9a3d1ea8f60a2e7f2e3a072474207585b3f62f0035385c6ec4ff952395",
        "per_client.csv": "6836fe2ee95c20d19d860b42a1ccde379a7a7267360c3f82fa8184cbc12f8af5",
        "acc_matrix_0.csv": "337eb4ad49bf12dff86f99c7ebc10e5974f6f2c51850af7ad2becb248a9b48cd",
        "acc_matrix_1.csv": "337eb4ad49bf12dff86f99c7ebc10e5974f6f2c51850af7ad2becb248a9b48cd",
        "memory_0.csv": "0a3615d43c720b119013bdfad9a9004de9bef17cf03869bda00e0473c62ae7c2",
        "memory_1.csv": "2adf9a5c1b54be2137380fd4c0427f186a439207cc208948e0cd21d1b1b139b0",
    },
    "class_weighted": {
        "summary.json": "0ddc5c05b824750da0cbcb52bf590a1cfa86e78bb913b0d2270339e8a70e1aa3",
        "rounds.log": "c442a1af0b8304a36f570b0244f332c28708bcf7e5541f974a48a0d1ddb9e649",
        "per_client.csv": "036314256375c20bee81b068c1756b9b47972f0ba9565772010f26fcfd5001f8",
        "acc_matrix_0.csv": "870f1f1a44aa2e825d62125a14b948bbb74839400839777b934ff461bd9d43be",
        "acc_matrix_1.csv": "870f1f1a44aa2e825d62125a14b948bbb74839400839777b934ff461bd9d43be",
        "memory_0.csv": "3985284d2f1482e9a96a8f7604ecad9f7eff77a4b316232ecfbaf77b4d1b6769",
        "memory_1.csv": "2c5c67b46f6f4d36314108f91b2d4f0dc35631cdf162deef15341f484f8a97d2",
    },
    "random": {
        "summary.json": "6e89303cd343c14e6a050de5d2977b0016378591fffd12f7ea2513c83d2e2fea",
        "rounds.log": "f9739a3fdf385f775f6ebbc005ec179a75f6a20325d003ca693369fee2475675",
        "per_client.csv": "14a9ed129e5a3dea181851b55bdd9474f226d8128e0dcefd00e6313efa4e165c",
        "acc_matrix_0.csv": "45ed4bd8833c178b19073d4a7b6939740fa008d3864c49d350a8be7a470b8268",
        "acc_matrix_1.csv": "45ed4bd8833c178b19073d4a7b6939740fa008d3864c49d350a8be7a470b8268",
        "memory_0.csv": "2399b7ad609462c1fe894bc4b1f67ef46928f3d3397d872fdb4dc17ecf77c1dd",
        "memory_1.csv": "470033ab9dbd95b0f72722c302384b535e9d1014f0ed824875d5930dbc4c4084",
    },
    "three_clients": {
        "summary.json": "014ea3d6f99808674c601e5908a220c6989fa9cf0c0d8de7dfc0835ab21cc1a7",
        "rounds.log": "9dfc9610614fde7addd7ceccdc79c580abf45a2ce0668b361e871a94f0ee070f",
        "per_client.csv": "4af21b56703588b49e12ac8fb90167ef613bc5caf37b0c53b926201bf52bd0f6",
        "acc_matrix_0.csv": "b59e81b8d74ad86e614791dd1199379fd4f72163da618c7131645e77ff1b2b84",
        "acc_matrix_1.csv": "b59e81b8d74ad86e614791dd1199379fd4f72163da618c7131645e77ff1b2b84",
        "acc_matrix_2.csv": "b59e81b8d74ad86e614791dd1199379fd4f72163da618c7131645e77ff1b2b84",
        "memory_0.csv": "bb441699a131dacdc66c964dad0fab9c6ef5355c2a860b8b50432778f9f59f45",
        "memory_1.csv": "c3b1c3fcc69c69fe4f383cf8f215e366766bb2a9be63ec7f97e97318b631bc95",
        "memory_2.csv": "3996c130fe8c5ea778a69346b3d1357d154dcea5dc1e7195b09aa8395672d450",
    },
    "top_k_lc_mask": {
        "summary.json": "d208cfa04b4b08b6c21fa237c4f2c9da1538c21bba38eb8df8102f72c4807e0d",
        "rounds.log": "cb409e6147bcd388d5ed36d6a49db17d709fe0843583cb7a4882e993e44b3128",
        "per_client.csv": "301b528028108bb367c4bb7929a5f3c99e226c50bbcac847044063410db49dbd",
        "acc_matrix_0.csv": "ac9285cf675aeb3c36ee02a81f706bd68db948c6d501fe7ba05896a5939a538c",
        "acc_matrix_1.csv": "ac9285cf675aeb3c36ee02a81f706bd68db948c6d501fe7ba05896a5939a538c",
        "memory_0.csv": "51cae872498ac7cb6021bfb1a1f2e7d3a18a2dbe4e15ab1c405a88d19b4e5ea5",
        "memory_1.csv": "06702cfa7a0fc88492329d142c5a6d763fe399071d14ae251d229542572ba123",
    },
    "top_k_rc": {
        "summary.json": "4a84c868d3108d1bf7d922e5fefd900d610daef4ddb5a8b4caf87b9c6a6f6478",
        "rounds.log": "a7c8f901da184477fb2370b833557502cb7fd5bd5ec1572ce70b40ca6644cf71",
        "per_client.csv": "1cebd944e8abcf5b372c3bdb1d57156981e815c02bc07a29284f54e374b950bb",
        "acc_matrix_0.csv": "a6c7305b25a3256a7cdcec3fa6dc774c376361a2e9953191ebccd8460eefe2c0",
        "acc_matrix_1.csv": "a6c7305b25a3256a7cdcec3fa6dc774c376361a2e9953191ebccd8460eefe2c0",
        "memory_0.csv": "0c966e922adebef04aaa40082725ad5ee0318c35c85a04d7887bec44837a8822",
        "memory_1.csv": "82396924a46f2b3e6a3428b93afff64c8ddd3b2b1b91b36116113927f04ac8b0",
    },
    "two_hidden_bi": {
        "summary.json": "58b4aa93b1b32f4e5b875b953cfc89f478ba56a57d4030fe01d87526ee913e97",
        "rounds.log": "46c8bd00d770e38b1ea7548d69dc17b91b87a5ea9623684dd7982b44ea4b1b51",
        "per_client.csv": "cec71fb1c1001bd208761e7e7b067438d4c329bca89b7ff60b720c3771d4edc8",
        "acc_matrix_0.csv": "48c88d0119b821d6c3cefddf638ebf7fb9474d9f5be1a60c2de3bd708193b3ad",
        "acc_matrix_1.csv": "48c88d0119b821d6c3cefddf638ebf7fb9474d9f5be1a60c2de3bd708193b3ad",
        "memory_0.csv": "e7f5db5a46042c0918fb3e9625b3cdd8b697940f49dc23c86605f78e1c1680e1",
        "memory_1.csv": "18bf08f4fd58ccd0dfb35a5f9c9c2941d59c93a40171a07596ffa2fff16812a2",
    },
}


def _hashes(name, out):
    config = ExperimentConfig(**{**_BASE, **CASES[name]})
    result = run_experiment(config)
    emit_report(result, out)
    for k, buffer in enumerate(result.buffers):
        dump_csv(buffer, out / f"memory_{k}.csv")
    assert result.round_log, "the golden configs must fire communication rounds"
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in _files(config.clients)}


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
    per scored block: the 48 new batches and the 53 stored classes that
    retention compared, so 101 calls of P x (144 + 204) = 1,044 rows. When
    the clients' deal and batch order came from generators of their own, the
    same rows were scored in 48 new and 52 stored blocks: 100 calls. Under
    that layout, scores of a stored class that came from a deferred call,
    made only when retention compared the class, drew copies of 412 rows to
    score 348. When each row's copies were forwarded alone, the same 1,044
    rows took 348 calls.
    """
    config, counts = _count_scoring(monkeypatch)
    assert counts["calls"] == {"new": 144, "stored": 204}
    assert counts["blocks"] == {"new": 48, "stored": 53}
    assert counts["forwards"] == {"calls": 101, "rows": config.perturbation_count * (144 + 204)}


def test_bottom_k_bi_scores_every_drawn_copy(monkeypatch):
    """Every row whose perturbed copies ``bottom_k_bi`` draws is scored: one ``score_sample`` call per drawn row.

    Under deferred calls, copies were drawn at every offer for each touched
    class's stored rows, and 412 rows were drawn for 348 scored.
    """
    _, counts = _count_scoring(monkeypatch)
    assert counts["drawn"] == sum(counts["calls"].values())
