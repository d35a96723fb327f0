package manager

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// benchWireMix is the steady-state hot-path message mix the CI gate
// measures: the ask/confirm cycle, its replies, and an inform.
func benchWireMix() []wireMsg {
	return []wireMsg{
		{Op: opAsk, ID: 101, Action: "call(pat3,sono)"},
		{Op: opReply, ID: 101, OK: true, Ticket: 4711},
		{Op: opConfirm, ID: 102, Ticket: 4711},
		{Op: opReply, ID: 102, OK: true},
		{Op: opRequest, ID: 103, Action: "perform(pat3,sono)"},
		{Op: opReply, ID: 103, OK: true},
		{Op: opInform, Sub: 9, Action: "call(pat3,sono)", Perm: true},
	}
}

// BenchmarkWireCodec measures the framed encoder and decoder on the
// hot-path mix; TestBinaryCodecZeroAlloc requires zero steady-state
// allocations both ways. ns/op is per message.
func BenchmarkWireCodec(b *testing.B) {
	msgs := benchWireMix()

	b.Run("encode", func(b *testing.B) {
		enc := newBinEncoder(bufio.NewWriter(io.Discard))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.encode(&msgs[i%len(msgs)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Decode from a pre-encoded in-memory stream, resetting the reader
	// when it runs dry (the reset is amortized over many repetitions).
	const reps = 256
	var buf bytes.Buffer
	enc := newBinEncoder(bufio.NewWriter(&buf))
	for r := 0; r < reps; r++ {
		for j := range msgs {
			if err := enc.encode(&msgs[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
	stream := buf.Bytes()
	b.Run("decode", func(b *testing.B) {
		r := bytes.NewReader(stream)
		br := bufio.NewReader(r)
		dec := newBinDecoder(br)
		left := reps * len(msgs)
		var msg wireMsg
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if left == 0 {
				r.Reset(stream)
				br.Reset(r)
				left = reps * len(msgs)
			}
			if err := dec.decode(&msg); err != nil {
				b.Fatal(err)
			}
			left--
		}
	})
}
