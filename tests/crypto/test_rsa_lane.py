"""The two-lane CRT engine behind RSA private-key operations.

Private-key operations run in batches.  The p-halves of a batch go to a
helper interpreter (the pow lane) as one message while the caller
computes the q-halves, when the message's p-moduli add up to 512 bits:
one half of a 1024-bit key, or a 512-bit key's signature pair; a lone
half of a shorter key never uses it.  These tests pin what that must
never change: signatures equal the textbook ``em^d mod n`` whichever
process computes a half and however a batch is cut, a dead helper costs
speed and nothing else, a late answer is never taken for a later one, a
wrong answer is never released, concurrent callers never see each
other's answers, long batches never deadlock on the pipes, and the
helper leaves nothing behind when the process exits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto import rsa
from repro.crypto.rsa import RsaPrivateKey, SignatureError, generate_keypair

_SRC = Path(rsa.__file__).resolve().parents[2]

# DER DigestInfo prefixes, spelled out here so the reference encoding
# below does not share code with the implementation under test.
_SHA1_INFO = bytes.fromhex("3021300906052b0e03021a05000414")
_SHA256_INFO = bytes.fromhex("3031300d060960864801650304020105000420")


def _hash_name(bits: int) -> str:
    return "sha1" if bits < 512 else "sha256"


def _textbook(private: RsaPrivateKey, message: bytes) -> bytes:
    """PKCS#1 v1.5 by the book: ``EMSA-PKCS1-v1_5(message)^d mod n``."""
    name = _hash_name(private.bits)
    info = _SHA1_INFO if name == "sha1" else _SHA256_INFO
    t = info + hashlib.new(name, message).digest()
    k = private.byte_length
    em = b"\x00\x01" + b"\xff" * (k - len(t) - 3) + b"\x00" + t
    return pow(int.from_bytes(em, "big"), private.d, private.n).to_bytes(k, "big")


def _sign(private: RsaPrivateKey, message: bytes) -> bytes:
    return private.sign(message, hash_name=_hash_name(private.bits))


@pytest.fixture(scope="module")
def keys():
    return {bits: generate_keypair(bits).private for bits in (384, 512, 1024)}


@pytest.fixture
def own_lane(monkeypatch):
    """Route this test's private operations through a lane of its own."""
    def install(lane_class=rsa._PowLane):
        lane = lane_class()
        monkeypatch.setattr(rsa, "_LANE", lane)
        lanes.append(lane)
        return lane

    lanes: list = []
    yield install
    for lane in lanes:
        lane.close()


class _EveryHalf(rsa._PowLane):
    """A lane that takes every message, however short its halves."""

    MIN_BITS = 0


@pytest.fixture
def lane(request, own_lane):
    """A lane of this test's own, of the class the test is parametrized with."""
    return own_lane(request.param)


@pytest.mark.parametrize("lane", [rsa._PowLane, _EveryHalf], indirect=True,
                         ids=["shipped", "every-half"])
@pytest.mark.parametrize("bits", [384, 512, 1024])
@given(message=st.binary(max_size=2048))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_two_lane_signature_is_the_textbook_signature(lane, keys, bits,
                                                      message):
    private = keys[bits]
    assert _sign(private, message) == _textbook(private, message)
    # The helper took the p-half exactly when the key is long enough.
    assert (lane._proc is not None) == (
        private.p.bit_length() >= lane.MIN_BITS)


@pytest.mark.parametrize("lane", [rsa._PowLane, _EveryHalf], indirect=True,
                         ids=["shipped", "every-batch"])
@pytest.mark.parametrize("bits", [384, 512, 1024])
@given(messages=st.lists(st.binary(max_size=512), min_size=1, max_size=8))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_batch_is_the_textbook_signature_of_each_message(lane, keys, bits,
                                                           messages):
    private = keys[bits]
    assert private.sign_many(messages, hash_name=_hash_name(bits)) == [
        _textbook(private, message) for message in messages]


def test_first_private_operation_launches_the_helper(own_lane, keys):
    lane = own_lane()
    assert lane._proc is None  # constructing a lane launches nothing
    _sign(keys[1024], b"first")
    assert lane._proc is not None and lane._proc.poll() is None


def test_short_keys_never_launch_the_helper(own_lane, keys):
    """A lone half of a short key is computed in the caller."""
    lane = own_lane()
    for bits in (384, 512):
        ciphertext, secret = rsa.kem_encapsulate(keys[bits].public_key)
        assert rsa.kem_decapsulate(keys[bits], ciphertext) == secret
        assert _sign(keys[bits], b"short") == _textbook(keys[bits], b"short")
    assert lane._proc is None


def test_a_weak_pair_launches_the_helper(own_lane, keys):
    """A 512-bit key's metasig + datasig pair is one 512-bit message."""
    lane = own_lane()
    private = keys[512]
    pair = [b"metasig", b"datasig"]
    assert private.sign_many(pair) == [_textbook(private, m) for m in pair]
    assert lane._proc is not None and lane._proc.poll() is None


def test_helper_answers_every_line_however_it_arrives():
    """Two requests in one write, and one split across a pause longer
    than the helper's poll, so it blocks in the middle of a line."""
    with subprocess.Popen([sys.executable, "-I", "-S", "-c",
                           rsa._PowLane.PROGRAM],
                          stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE) as helper:
        helper.stdin.write(b"3 5 7\n2 a 3e8\n1f 2")
        helper.stdin.flush()
        # The helper's poll runs on the real clock.
        time.sleep(5 * rsa._PowLane.POLL_S)  # wormlint: disable=W002
        helper.stdin.write(b" 65\n")
        helper.stdin.close()
        answers = helper.stdout.read()
    assert helper.returncode == 0
    assert answers == b"%x\n%x\n%x\n" % (
        pow(3, 5, 7), pow(2, 0xA, 0x3E8), pow(0x1F, 2, 0x65))


def test_signatures_after_the_helper_blocked_are_unchanged(own_lane, keys):
    lane = own_lane()
    private = keys[1024]
    for i in range(3):
        message = b"m-%d" % i
        assert _sign(private, message) == _textbook(private, message)
        # Past the helper's poll, which runs on the real clock.
        time.sleep(5 * lane.POLL_S)  # wormlint: disable=W002
    assert lane._proc is not None and lane._proc.poll() is None


def test_killed_helper_costs_nothing_but_speed(own_lane, keys):
    lane = own_lane()
    private = keys[1024]
    messages = [b"record-%d" % i for i in range(12)]
    for message in messages[:4]:
        assert _sign(private, message) == _textbook(private, message)
    helper = lane._proc
    helper.kill()
    helper.wait(timeout=10)
    for message in messages[4:]:
        assert _sign(private, message) == _textbook(private, message)
    assert lane._proc is None  # reaped, and never relaunched


class _DiesMidRequest(rsa._PowLane):
    """A helper that reads one request and exits without answering."""

    PROGRAM = "import sys\nsys.stdin.buffer.readline()\n"


def test_helper_dying_mid_request_falls_back_in_process(own_lane, keys):
    lane = own_lane(_DiesMidRequest)
    private = keys[1024]
    for i in range(5000):
        message = b"m-%d" % i
        assert _sign(private, message) == _textbook(private, message)
        if lane._proc is None:
            break
    assert lane._proc is None  # the death was noticed and the helper reaped
    assert _sign(private, b"after") == _textbook(private, b"after")


class _LateStart(rsa._PowLane):
    """A helper that starts answering a fifth of a second late."""

    PROGRAM = "import time\ntime.sleep(0.2)\n" + rsa._PowLane.PROGRAM


def test_late_answers_are_never_read_as_later_ones(own_lane, keys):
    lane = own_lane(_LateStart)
    private = keys[1024]
    assert _sign(private, b"first") == _textbook(private, b"first")
    assert lane._owed  # computed here; the helper still owes its answer
    for i in range(5000):
        message = b"m-%d" % i
        assert _sign(private, message) == _textbook(private, message)
        if not lane._owed:
            break
    assert not lane._owed and lane._proc is not None  # caught up, in use


class _FirstThenLate(rsa._PowLane):
    """A helper that answers the first request of each read at once and
    the rest a fifth of a second later."""

    PROGRAM = ("import os, time\n"
               "inbox = b''\n"
               "while True:\n"
               "    chunk = os.read(0, 65536)\n"
               "    if not chunk:\n"
               "        break\n"
               "    lines = (inbox + chunk).split(b'\\n')\n"
               "    inbox = lines.pop()\n"
               "    for i, line in enumerate(lines):\n"
               "        if i == 1:\n"
               "            time.sleep(0.2)\n"
               "        b, e, m = (int(x, 16) for x in line.split())\n"
               "        os.write(1, b'%x\\n' % pow(b, e, m))\n")


def test_owed_answers_are_never_read_as_the_next_batchs(own_lane, keys):
    lane = own_lane(_FirstThenLate)
    private = keys[1024]
    partial = 0
    for round_ in range(6):
        messages = [b"r%d-%d" % (round_, i) for i in range(4)]
        assert private.sign_many(messages) == [
            _textbook(private, m) for m in messages]
        # The first answer was taken, the other three are owed.
        partial += 0 < lane._owed < len(messages)
        # The late answers land in the pipe; the next batch must drain
        # and discard them before its own message goes out.
        time.sleep(0.3)  # wormlint: disable=W002
    assert partial > 0
    assert lane._proc is not None and lane._proc.poll() is None


class _WrongHalf(rsa._PowLane):
    """A helper that answers every request with the same wrong half."""

    PROGRAM = ("import sys\n"
               "for line in sys.stdin.buffer:\n"
               "    print('2a', flush=True)\n")


def test_wrong_half_is_never_released(own_lane, keys):
    own_lane(_WrongHalf)
    private = keys[1024]
    ciphertext, secret = rsa.kem_encapsulate(private.public_key)
    refused = 0
    for i in range(200):
        message = b"m-%d" % i
        # An answer in time is used and fails the self-check; a late one is
        # discarded and the half computed here.  Either way, nothing wrong
        # is released.
        try:
            assert _sign(private, message) == _textbook(private, message)
        except SignatureError as exc:
            assert "self-check" in str(exc)
            refused += 1
        try:
            assert rsa.kem_decapsulate(private, ciphertext) == secret
        except SignatureError as exc:
            assert "self-check" in str(exc)
            refused += 1
    assert refused > 0


class _FirstHalfWrong(rsa._PowLane):
    """A helper whose first answer to each read is wrong, the rest right."""

    PROGRAM = ("import os\n"
               "inbox = b''\n"
               "while True:\n"
               "    chunk = os.read(0, 65536)\n"
               "    if not chunk:\n"
               "        break\n"
               "    lines = (inbox + chunk).split(b'\\n')\n"
               "    inbox = lines.pop()\n"
               "    for i, line in enumerate(lines):\n"
               "        b, e, m = (int(x, 16) for x in line.split())\n"
               "        os.write(1, b'%x\\n' % (42 if i == 0 else pow(b, e, m)))\n")


def test_a_wrong_half_in_a_batch_releases_none_of_it(own_lane, keys):
    own_lane(_FirstHalfWrong)
    private = keys[1024]
    refused = 0
    for i in range(50):
        messages = [b"b%d-%d" % (i, j) for j in range(4)]
        # Either the wrong answer came in time and the whole batch is
        # refused, or it was late and computed here; never a batch with
        # some signatures released.
        try:
            signatures = private.sign_many(messages)
        except SignatureError as exc:
            assert "self-check" in str(exc)
            refused += 1
        else:
            assert signatures == [_textbook(private, m) for m in messages]
    assert refused > 0


def test_derived_crt_fields_stay_out_of_the_key_identity(keys):
    private = keys[512]
    assert (private.dp, private.dq, private.qinv) == (
        private.d % (private.p - 1), private.d % (private.q - 1),
        pow(private.q, -1, private.p))
    assert repr(private) == (
        f"RsaPrivateKey(n={private.n}, e={private.e}, d={private.d}, "
        f"p={private.p}, q={private.q}, bits={private.bits})")
    assert sorted(private.to_dict()) == ["bits", "d", "e", "n", "p", "q"]
    restored = RsaPrivateKey.from_dict(private.to_dict())
    assert restored == private and hash(restored) == hash(private)
    assert (restored.dp, restored.dq, restored.qinv) == (
        private.dp, private.dq, private.qinv)
    compared = [f.name for f in dataclasses.fields(RsaPrivateKey) if f.compare]
    assert compared == ["n", "e", "d", "p", "q", "bits"]


def _stress_threads(private: RsaPrivateKey, batch: int) -> None:
    """Sign from many threads at once, *batch* messages a call, with the
    interpreter switching threads as often as it can."""
    messages = [b"m-%d" % i for i in range(24)]
    expected = [_sign(private, m) for m in messages]
    threads_n = 2 * (os.cpu_count() or 1) + 2
    rounds = 3
    results: list = [[] for _ in range(threads_n)]
    errors: list = []

    def work(slot: int) -> None:
        try:
            for i in range(slot, slot + rounds * len(messages), batch):
                indices = [j % len(messages) for j in range(i, i + batch)]
                signed = private.sign_many([messages[j] for j in indices])
                results[slot].extend(zip(indices, signed))
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,), daemon=True)
                   for slot in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    signed = [pair for per_thread in results for pair in per_thread]
    assert len(signed) == threads_n * rounds * len(messages)
    assert all(signature == expected[index] for index, signature in signed)


def test_threads_never_see_each_others_answers(keys):
    _stress_threads(keys[1024], batch=1)


def test_threads_never_see_each_others_batches(keys):
    _stress_threads(keys[1024], batch=3)
    _stress_threads(keys[512], batch=2)


def test_long_batches_never_deadlock_on_the_pipes(keys):
    """A batch whose answers would overfill the helper's output pipe goes
    out in messages that fit it; one message for the whole batch had the
    helper and the caller each block writing to the other."""
    code = ("import json, sys\n"
            "from repro.crypto import rsa\n"
            "for data, count in json.loads(sys.argv[1]):\n"
            "    key = rsa.RsaPrivateKey.from_dict(data)\n"
            "    signed = key.sign_many([b'%d' % i for i in range(count)])\n"
            "    assert len(signed) == count\n"
            "    assert key.public_key.verify(b'%d' % (count - 1), signed[-1])\n"
            "print(rsa._LANE._proc is not None)\n")
    batches = [(keys[512].to_dict(), 5000), (keys[1024].to_dict(), 1500)]
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    child = subprocess.run(
        [sys.executable, "-c", code, json.dumps(batches)],
        capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "True"  # the batches used the helper


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_dev_mode_child_exits_clean_and_leaves_no_helper(keys):
    code = ("import json, sys\n"
            "from repro.crypto import rsa\n"
            "key = rsa.RsaPrivateKey.from_dict(json.loads(sys.argv[1]))\n"
            "key.sign(b'once')\n"
            "print(rsa._LANE._proc.pid)\n")
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    child = subprocess.run(
        [sys.executable, "-X", "dev", "-c", code,
         json.dumps(keys[1024].to_dict())],
        capture_output=True, text=True, env=env, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
    # The exit hook reaps the helper before the child exits, so it is gone
    # now, not merely on its way out.
    assert not _alive(int(child.stdout))
