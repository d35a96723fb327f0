package manager

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"
)

// FuzzBinaryFrame feeds arbitrary bytes to the v2 payload decoder and to
// the framed stream decoder. The invariants:
//
//  1. The decoder never panics, whatever the bytes.
//  2. Anything it accepts re-encodes, and the re-encoding decodes back to
//     the same message (decode ∘ encode is the identity on accepted
//     inputs) — so a v2 peer can relay any frame it accepted.
//  3. A framed stream around the same payload yields the same message.
func FuzzBinaryFrame(f *testing.F) {
	// Structured seeds: real payloads of the hot-path ops.
	seed := func(msg wireMsg) {
		p, err := appendBinMsg(nil, &msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	seed(wireMsg{Op: opAsk, ID: 2, Action: "call(p,x)"})
	seed(wireMsg{Op: opConfirm, ID: 3, Ticket: 9})
	seed(wireMsg{Op: opReply, ID: 3, OK: true, Ticket: 9})
	seed(wireMsg{Op: opReply, ID: 4, Err: ErrDenied.Error()})
	seed(wireMsg{Op: opInform, Sub: 1, Action: "a", Perm: true})
	seed(wireMsg{Op: opInform, Subs: []uint64{1, 2, 3}, Action: "a", Perm: true})
	seed(wireMsg{Op: opRequestMany, ID: 5, Acts: []string{"a", "b"}})
	seed(wireMsg{Op: opReplicate, Epoch: 2, Prev: 1, Seq: 40, Acts: []string{"a"}, Tks: []uint64{7}})
	seed(wireMsg{Op: opReplicate, Epoch: 2, Seq: 40, Ctr: 9, Snap: json.RawMessage("null")})
	seed(wireMsg{Op: opReplicate, Seq: 1, Snap: json.RawMessage("not json")})
	// Hostile seeds: truncations, oversized claims, unknown tags.
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0xff, 0x00, 0x00})
	f.Add([]byte{22, 0, 0})
	f.Add([]byte{1, 0x80, 0x00})
	f.Add([]byte{1, 0, 0x02, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{11, 0, 0x80, 0x80, 0x10, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{1, 0, 0x80, 0x80, 0x20})
	f.Add([]byte{1, 0, 0x80, 0x80, 0x08, 4, 'b', 'i', 'n', '2'})

	f.Fuzz(func(t *testing.T, p []byte) {
		var in strIntern
		var msg wireMsg
		if err := decodeBinMsg(p, &msg, &in); err != nil {
			return // rejected is fine; panicking is not
		}
		// Accepted: the round trip must be a fixpoint. Compare encodings,
		// not messages: the one representational freedom the codec has is
		// a hostile Stats blob, which decodes into the struct and
		// re-encodes canonically.
		q, err := appendBinMsg(nil, &msg)
		if err != nil {
			t.Fatalf("accepted payload %x failed to re-encode: %v", p, err)
		}
		var msg2 wireMsg
		if err := decodeBinMsg(q, &msg2, nil); err != nil {
			t.Fatalf("re-encoding of %x does not decode: %v", p, err)
		}
		if q2, err := appendBinMsg(nil, &msg2); err != nil || !bytes.Equal(q, q2) {
			t.Fatalf("decode∘encode is not the identity (%v):\n first  %x\n second %x", err, q, q2)
		}

		// The framed stream path must agree with the payload path.
		var frame bytes.Buffer
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(p)))
		frame.Write(hdr[:])
		frame.Write(p)
		var msg3 wireMsg
		if err := newBinDecoder(bufio.NewReader(&frame)).decode(&msg3); err != nil {
			t.Fatalf("framed decode of accepted payload failed: %v", err)
		}
		if q3, err := appendBinMsg(nil, &msg3); err != nil || !bytes.Equal(q, q3) {
			t.Fatalf("framed decode disagrees with payload decode (%v):\n payload %x\n framed  %x", err, q, q3)
		}
	})
}

// FuzzBinaryStream feeds arbitrary bytes to the framed decoder directly,
// covering the length-prefix parsing: truncated headers, oversized
// claims and partial payloads must all error without panic or huge
// allocation.
func FuzzBinaryStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x03, 1, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 0, 0})
	f.Add([]byte{0x08, 0x00, 0x00, 0x00, 1, 0, 0})
	f.Fuzz(func(t *testing.T, p []byte) {
		dec := newBinDecoder(bufio.NewReader(bytes.NewReader(p)))
		var msg wireMsg
		for {
			if err := dec.decode(&msg); err != nil {
				break
			}
		}
	})
}
