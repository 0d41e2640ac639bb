"""Seeded traces are pinned: the same seed draws the same RNG stream.

Each case pins SHA-256 digests of the timestamp column (little-endian
float64), the size column (little-endian int64) and every packet's
104-bit header (13 bytes, big-endian), in packet order.  The digests
were recorded while traces were still built packet by packet; the
column-built traces must reproduce them exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.traffic.generator import (
    TraceConfig,
    generate_epochs,
    generate_trace,
)

#: ``name -> (packets, timestamps, sizes, headers)``.
PINS = {
    "trace seed=1 flows=2000": (
        19033,
        "c3b6f46c0a54f446d6d5de69f04bc6d2efa826ed2f911112f749120f35a626f3",
        "1294d101738bba41b29c8a20908c8189cfbbaa9feb4ab61def9ba7a7571907fb",
        "3746071b9acfb0b7afd51ef5a54d211db5b5d9d63613ad4638674069b98d6ff6",
    ),
    "trace seed=1 flows=10000": (
        96471,
        "89440d133c87d1d7472e97ee09dd0ef41444753da8337b520f3c8533391806cc",
        "258fe4cf275b3e94b4f60176e9029b97777556f98138725a7f87edfa8c714023",
        "9eed69d1b3fdf7f8065bfc96004076c1059ba06b56bc9aa44af635ac6a36c62f",
    ),
    "trace seed=2017 flows=2000": (
        19730,
        "78261c75e7ba844f53500a40ddc3e6a2a6c2e01934572ab8db4527b5a9a73538",
        "ad8e38422a19e4fbe4929b1f0547e4ddb6aef6b80c8a968889adb77d0b604639",
        "9339cec9160e8baf5004d4bbccb7f682ad70644614a76f89e45343d75005dcdc",
    ),
    "trace seed=2017 flows=10000": (
        99729,
        "d566e34c45a8a64575891a12465570367340cdb77ad18da08a5451cc61672094",
        "d42fc16689e3184961a64a4a3b2dbc8bf732f5ab6adba7e99036a46423e88dfa",
        "6fbe947bd0f8268407a2764b47385b41233c250bd27d20f444b56c6cd5e3be6b",
    ),
    "trace bursty seed=7 flows=2000": (
        19290,
        "26bfcc849b388cbbecdde6c723a75f1e76a0b868cfe43a5fc77f13a8cda4986b",
        "de24bb587fd1d70cc14969a223421dbc5efa4320ed4fd80e5de86a8aab89d70e",
        "10d922b33048d2b993c03dcb58910e5300fc602d357d4ff97480c53b804c22f9",
    ),
    "epochs seed=2017 flows=2000 epoch=0": (
        19117,
        "17ef028f757150ebf688bda53807940ecc3d4202975ca013dff29bbcd7096e1c",
        "bd913f502726bd7471b1b73df39c5c40a7b0b137eb0afc00f8505cc0ec95d25d",
        "2b1de7bc49c743ae4364380d65a81963fc70bb36ad0dbdb82bdfd7278fcd0e60",
    ),
    "epochs seed=2017 flows=2000 epoch=1": (
        18806,
        "2b2ffb2a1e83ca549de0c6c3d9ae230679fce13b2be1a35d3aeeb14013a37592",
        "206480a684f39a9dd034be1049f9f0ca36e93592d6a69af20822beb7dee83dc0",
        "63ff857cf4e44fb645d59a3b56070768611b2b5d8e7dc97868a428c0dc80ffc5",
    ),
    "epochs seed=2017 flows=2000 epoch=2": (
        18294,
        "26c50ab46a2c85b1c701e3d84ffef4a8bc7e9bdbf34e20150a4e1a985605c667",
        "cbe7fb5d375ec5315ec69df3d15105fdb34430fae042efbda70f20a75036b8f7",
        "5bfcd217b417fe5eac56e467d4384d92202fa55e9f09ac5812ea5e385518f434",
    ),
}


def _digests(trace):
    headers = hashlib.sha256()
    for packet in trace.packets:
        headers.update(packet.flow.key104.to_bytes(13, "big"))
    return (
        len(trace),
        hashlib.sha256(trace.timestamps.astype("<f8").tobytes()).hexdigest(),
        hashlib.sha256(trace.sizes.astype("<i8").tobytes()).hexdigest(),
        headers.hexdigest(),
    )


@pytest.mark.parametrize(
    ("seed", "flows"), [(1, 2000), (1, 10_000), (2017, 2000), (2017, 10_000)]
)
def test_generate_trace_is_pinned(seed, flows):
    trace = generate_trace(TraceConfig(num_flows=flows, seed=seed))
    assert _digests(trace) == PINS[f"trace seed={seed} flows={flows}"]


def test_bursty_trace_is_pinned():
    trace = generate_trace(
        TraceConfig(num_flows=2000, seed=7, burstiness=0.3)
    )
    assert _digests(trace) == PINS["trace bursty seed=7 flows=2000"]


def test_generate_epochs_is_pinned():
    epochs = generate_epochs(TraceConfig(num_flows=2000, seed=2017), 3)
    for index, epoch in enumerate(epochs):
        name = f"epochs seed=2017 flows=2000 epoch={index}"
        assert _digests(epoch) == PINS[name]
    # Epochs share one flow table: the population persists.
    assert all(epoch.table is epochs[0].table for epoch in epochs)


def test_header_digest_matches_the_flow_column():
    """The pinned header digest reads packets; the flow column through
    the table must give the same headers."""
    trace = generate_trace(TraceConfig(num_flows=2000, seed=1))
    headers = [flow.key104 for flow in trace.table]
    from_columns = hashlib.sha256(
        b"".join(
            headers[index].to_bytes(13, "big")
            for index in np.asarray(trace.flow).tolist()
        )
    ).hexdigest()
    assert from_columns == PINS["trace seed=1 flows=2000"][3]
