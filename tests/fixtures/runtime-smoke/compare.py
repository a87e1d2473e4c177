"""Checks one gill-collectord run of the fixture day against the recorded
reference in this directory.

Usage: python3 compare.py PREFIX

PREFIX names the run's outputs: PREFIX.vps.json (/vps), PREFIX.rib.<ASN>.json
(/rib?vp=<ASN> for every VP /vps lists), PREFIX.ndjson (/stream/updates) and
PREFIX.mrt (the archive). /vps must match byte for byte. /rib and the stream
frames must match after zeroing every "time" field: BGP-fed updates are
stamped at arrival. Archive records must match with the MRT header seconds
(the arrival time) ignored.
"""

import json
import os
import struct
import sys

REF = os.path.dirname(os.path.abspath(__file__))


def zero_time(o):
    if isinstance(o, dict):
        return {k: (0 if k == "time" else zero_time(v)) for k, v in o.items()}
    if isinstance(o, list):
        return [zero_time(x) for x in o]
    return o


def records(path):
    data = open(path, "rb").read()
    off, out = 0, []
    while off < len(data):
        _ts, mtype, msub, mlen = struct.unpack_from(">IHHI", data, off)
        out.append((mtype, msub, data[off + 12:off + 12 + mlen]))
        off += 12 + mlen
    assert off == len(data), (path, off)
    return out


def frames(path):
    return [zero_time(json.loads(l)) for l in open(path) if l.strip()]


def main(prefix):
    ref = lambda name: os.path.join(REF, name)
    vps = open(f"{prefix}.vps.json", "rb").read()
    assert vps == open(ref("vps.json"), "rb").read(), vps
    asns = [str(v["asn"]) for v in json.loads(vps)["vps"]]
    assert len(asns) >= 2, asns
    for asn in asns:
        got = zero_time(json.load(open(f"{prefix}.rib.{asn}.json")))
        want = json.load(open(ref(f"rib.{asn}.json")))
        assert got == want, (asn, got, want)
    stream = frames(f"{prefix}.ndjson")
    assert stream and stream == frames(ref("stream.ndjson")), stream
    assert stream[-1]["type"] == "eos", stream[-1]
    archive = records(f"{prefix}.mrt")
    assert len(archive) == 12 and archive == records(ref("archive.mrt")), len(archive)
    print(f"/vps, /rib x{len(asns)}, /stream/updates ({len(stream)} frames) and "
          f"{len(archive)} archive records match the recorded reference")


if __name__ == "__main__":
    main(sys.argv[1])
