package manager

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"
)

// binRoundTrip pushes one message through the payload codec and fails the
// test on any error.
func binRoundTrip(t *testing.T, msg wireMsg) wireMsg {
	t.Helper()
	p, err := appendBinMsg(nil, &msg)
	if err != nil {
		t.Fatalf("encode %+v: %v", msg, err)
	}
	var got wireMsg
	if err := decodeBinMsg(p, &got, nil); err != nil {
		t.Fatalf("decode %+v: %v", msg, err)
	}
	return got
}

// TestBinaryRoundTripAllFields drives every wireMsg field through the
// binary codec at once and expects an exact reconstruction.
func TestBinaryRoundTripAllFields(t *testing.T) {
	msg := wireMsg{
		ID:       42,
		Op:       opReplicate,
		Action:   "call(pat1,sono)",
		Ticket:   7,
		Sub:      9,
		OK:       true,
		Err:      "some: failure",
		Perm:     true,
		Final:    true,
		Acts:     []string{"a", "b", "perform(p)"},
		Errs:     []string{"", "denied", ""},
		Epoch:    3,
		Prev:     2,
		Seq:      1001,
		Ctr:      77,
		Tks:      []uint64{5, 0, 6},
		Snap:     json.RawMessage(`{"state":"x"}`),
		Role:     RolePrimary,
		Addr:     "127.0.0.1:9999",
		Addrs:    []string{"127.0.0.1:1", "127.0.0.1:2"},
		Draining: true,
		Stats:    &StatsSnapshot{Role: RolePrimary, Epoch: 3, Steps: 12, Final: true, MemoHitRate: 0.5},
		Subs:     []uint64{1, 2, 3},
	}
	got := binRoundTrip(t, msg)
	if !reflect.DeepEqual(msg, got) {
		t.Fatalf("round trip mismatch:\n sent %+v\n got  %+v", msg, got)
	}
}

// TestBinaryRoundTripEveryOp checks each assigned opcode survives the
// round trip, and that an unassigned one cannot be encoded.
func TestBinaryRoundTripEveryOp(t *testing.T) {
	for code, name := range opNames {
		if name == "" {
			continue
		}
		got := binRoundTrip(t, wireMsg{Op: op(code), ID: uint64(code)})
		if got.Op != op(code) || got.ID != uint64(code) {
			t.Fatalf("op %q (code %d) came back as %v (id %d)", name, code, got.Op, got.ID)
		}
	}
	for _, code := range []op{0, 22, 200} {
		if _, err := appendBinMsg(nil, &wireMsg{Op: code}); err == nil {
			t.Fatalf("encoding unassigned opcode %d should fail", code)
		}
	}
}

// TestBinaryExplicitBooleans: the flags byte carries all four booleans
// explicitly, so false is a value and not an omission. Every combination
// must survive.
func TestBinaryExplicitBooleans(t *testing.T) {
	for bits := 0; bits < 16; bits++ {
		msg := wireMsg{
			Op:       opReply,
			ID:       1,
			OK:       bits&1 != 0,
			Perm:     bits&2 != 0,
			Final:    bits&4 != 0,
			Draining: bits&8 != 0,
		}
		got := binRoundTrip(t, msg)
		if got.OK != msg.OK || got.Perm != msg.Perm || got.Final != msg.Final || got.Draining != msg.Draining {
			t.Fatalf("flag combination %04b came back as OK=%v Perm=%v Final=%v Draining=%v",
				bits, got.OK, got.Perm, got.Final, got.Draining)
		}
	}
}

// TestBinarySentinelErrors: every wire-level sentinel must keep its
// errors.Is identity after a binary encode → decode → wireError cycle,
// both in its exact form and with a detail suffix. The cluster gateway's
// retry logic depends on exactly this.
func TestBinarySentinelErrors(t *testing.T) {
	sentinels := []error{ErrDenied, ErrUnknownTicket, ErrClosed,
		ErrNotPrimary, ErrStaleEpoch, ErrReplGap, ErrUncertain, ErrDraining}
	for _, sentinel := range sentinels {
		for _, text := range []string{sentinel.Error(), sentinel.Error() + ": detail 42"} {
			got := binRoundTrip(t, wireMsg{Op: opReply, ID: 1, Err: text})
			if got.Err != text {
				t.Fatalf("error text %q came back as %q", text, got.Err)
			}
			if !errors.Is(wireError(got.Err), sentinel) {
				t.Fatalf("wireError(%q) lost its %v identity", got.Err, sentinel)
			}
		}
	}
	// A non-sentinel error stays a plain error and keeps its text.
	got := binRoundTrip(t, wireMsg{Op: opReply, Err: "something else went wrong"})
	if err := wireError(got.Err); err.Error() != "something else went wrong" {
		t.Fatalf("plain error came back as %v", err)
	}
	for _, sentinel := range sentinels {
		if errors.Is(wireError(got.Err), sentinel) {
			t.Fatalf("plain error gained a %v identity", sentinel)
		}
	}
}

// TestBinarySnapPresence: Snap's presence is meaning — a non-nil empty
// snapshot payload must stay non-nil (it marks a replication snapshot),
// and an absent one must stay nil (an incremental frame).
func TestBinarySnapPresence(t *testing.T) {
	if got := binRoundTrip(t, wireMsg{Op: opReplicate, Seq: 5}); got.Snap != nil {
		t.Fatalf("absent Snap decoded as non-nil %q", got.Snap)
	}
	got := binRoundTrip(t, wireMsg{Op: opReplicate, Snap: json.RawMessage{}})
	if got.Snap == nil {
		t.Fatal("empty Snap decoded as nil: the snapshot marker was lost")
	}
	got = binRoundTrip(t, wireMsg{Op: opReplicate, Snap: json.RawMessage("null")})
	if string(got.Snap) != "null" {
		t.Fatalf("Snap %q came back as %q", "null", got.Snap)
	}
}

// TestBinaryDecodeHostile feeds malformed payloads to the strict decoder;
// each must be rejected with an error, never accepted or panic.
func TestBinaryDecodeHostile(t *testing.T) {
	good, err := appendBinMsg(nil, &wireMsg{Op: opAsk, ID: 3, Action: "a"})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":             {},
		"opcode only":       {1},
		"zero opcode":       {0, 0, 0},
		"unknown opcode":    {200, 0, 0},
		"unknown flag bits": {1, 0x80, 0},
		"retired opcode 22": {22, 0, 0},
		"unknown mask bits": append([]byte{1, 0}, 0x80, 0x80, 0x20),          // bit 19
		"retired mask bit":  {1, 0, 0x80, 0x80, 0x08, 4, 'b', 'i', 'n', '2'}, // bit 17, the old proto field
		"truncated field":   good[:len(good)-1],
		"trailing bytes":    append(append([]byte{}, good...), 0),
		"oversized string":  {1, 0, 0x02, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"oversized count":   {11, 0, 0x80, 0x80, 0x10, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"truncated uvarint": {1, 0, 0x80},
		"stats not json":    {21, 0, 0x80, 0x80, 0x04, 0x03, 'x', 'y', 'z'},
	}
	for name, p := range cases {
		var msg wireMsg
		if err := decodeBinMsg(p, &msg, nil); err == nil {
			t.Errorf("%s: decoder accepted %x", name, p)
		}
	}
}

// TestBinaryFrameStream runs messages through the framed encoder/decoder
// pair over an in-memory pipe, checking sequencing and buffer reuse.
func TestBinaryFrameStream(t *testing.T) {
	var buf bytes.Buffer
	enc := newBinEncoder(bufio.NewWriter(&buf))
	msgs := []wireMsg{
		{Op: opAsk, ID: 2, Action: "call(p,x)"},
		{Op: opReply, ID: 2, OK: true, Ticket: 1},
		{Op: opInform, Subs: []uint64{1, 2, 3}, Action: "call(p,x)", Perm: true},
		{Op: opReply, ID: 3, Err: ErrDenied.Error()},
	}
	for i := range msgs {
		if err := enc.encode(&msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	dec := newBinDecoder(bufio.NewReader(&buf))
	for i := range msgs {
		var got wireMsg
		if err := dec.decode(&got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(msgs[i], got) {
			t.Fatalf("frame %d mismatch:\n sent %+v\n got  %+v", i, msgs[i], got)
		}
	}
	var got wireMsg
	if err := dec.decode(&got); err != io.EOF {
		t.Fatalf("after the last frame: %v, want EOF", err)
	}
}

// TestBinaryFrameLengthClaims: the framed decoder must reject a length
// claim above the limit, and a large in-limit claim for a short stream
// must fail with a truncation error without allocating the claim.
func TestBinaryFrameLengthClaims(t *testing.T) {
	over := []byte{0xff, 0xff, 0xff, 0xff} // ~4 GiB claim
	if err := newBinDecoder(bufio.NewReader(bytes.NewReader(over))).decode(&wireMsg{}); err == nil {
		t.Fatal("over-limit length claim accepted")
	}
	// 128 MiB claim, 3 bytes of actual payload: the chunked reader must
	// give up after the stream ends, not pre-allocate 128 MiB.
	big := []byte{0x08, 0x00, 0x00, 0x00, 1, 0, 0}
	d := newBinDecoder(bufio.NewReader(bytes.NewReader(big)))
	if err := d.decode(&wireMsg{}); err == nil {
		t.Fatal("truncated oversized frame accepted")
	}
	if cap(d.buf) > 2*binReadChunk {
		t.Fatalf("oversized claim allocated %d bytes up front", cap(d.buf))
	}
}

// TestBinaryCodecZeroAlloc: steady-state encode and decode of hot-path
// ops must allocate nothing (the PR's gate is 0 allocs/op).
func TestBinaryCodecZeroAlloc(t *testing.T) {
	msgs := []wireMsg{
		{Op: opAsk, ID: 7, Action: "call(pat3,sono)"},
		{Op: opConfirm, ID: 8, Ticket: 12},
		{Op: opReply, ID: 8, OK: true},
		{Op: opInform, Sub: 4, Action: "call(pat3,sono)", Perm: true},
	}
	enc := newBinEncoder(bufio.NewWriter(io.Discard))
	// Warm up the grow-only buffer.
	for i := range msgs {
		if err := enc.encode(&msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := range msgs {
			if err := enc.encode(&msgs[i]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state encode: %v allocs per %d messages, want 0", allocs, len(msgs))
	}

	var stream bytes.Buffer
	senc := newBinEncoder(bufio.NewWriter(&stream))
	for i := range msgs {
		if err := senc.encode(&msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	raw := stream.Bytes()
	r := bytes.NewReader(raw)
	br := bufio.NewReader(r)
	dec := newBinDecoder(br)
	var msg wireMsg
	// Warm up the payload buffer and the intern table.
	for range msgs {
		if err := dec.decode(&msg); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(100, func() {
		r.Reset(raw)
		br.Reset(r)
		for range msgs {
			if err := dec.decode(&msg); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state decode: %v allocs per %d messages, want 0", allocs, len(msgs))
	}
}
