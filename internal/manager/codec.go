package manager

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// The wire codec: a compact length-prefixed binary framing for wireMsg.
// A connection carries these frames from its first byte, both ways.
//
// Frame layout:
//
//	u32 big-endian payload length
//	u8  opcode                  (the op constants in net.go)
//	u8  flags                   (OK/Perm/Final/Draining — explicit, so
//	                             false is a real value, not an omission)
//	uvarint field mask          (bit i set ⇒ field i present)
//	fields in ascending bit order
//
// Scalars are uvarints; strings and byte blobs are uvarint-length-prefixed;
// slices are a uvarint count followed by their elements. A field equal to
// its zero value is simply absent from the mask — except the flags, which
// always travel, and Snap, whose *presence* is meaning (a non-nil Snap
// marks a replication snapshot even when the engine payload is empty).
//
// The decoder is strict: unknown opcodes, unknown flag or mask bits,
// length claims that exceed the payload, and trailing bytes are all
// errors. Both ends speak this one version, so leniency would only hide
// corruption.

// ProtoBinary names the wire encoding (see Client.Proto).
const ProtoBinary = "bin2"

// maxBinFrame bounds a binary frame's payload. Replication snapshots of
// large engines are the biggest legitimate frames; 256 MiB is far above
// any of those while still refusing absurd length claims outright.
const maxBinFrame = 256 << 20

// Field mask bits, in wire order.
const (
	fID uint64 = 1 << iota
	fAction
	fTicket
	fSub
	fErr
	fActs
	fErrs
	fEpoch
	fPrev
	fSeq
	fCtr
	fTks
	fSnap
	fRole
	fAddr
	fAddrs
	fStats
	_ // bit 17 was the hello's proto field; retired, never reused
	fSubs

	fKnownMask = (1<<19 - 1) &^ (1 << 17)
)

// Flag bits (booleans travel here, never in the mask).
const (
	flagOK byte = 1 << iota
	flagPerm
	flagFinal
	flagDraining

	flagKnown = flagOK | flagPerm | flagFinal | flagDraining
)

var (
	errBinTruncated = errors.New("manager: binary frame truncated")
	errBinTrailing  = errors.New("manager: binary frame has trailing bytes")
)

// appendBinMsg encodes one message as a v2 payload (no length prefix),
// appending to dst. It allocates nothing beyond dst growth except for the
// stats blob, which is not a hot-path field.
func appendBinMsg(dst []byte, msg *wireMsg) ([]byte, error) {
	if !msg.Op.assigned() {
		return dst, fmt.Errorf("manager: encode unassigned %v", msg.Op)
	}
	var flags byte
	if msg.OK {
		flags |= flagOK
	}
	if msg.Perm {
		flags |= flagPerm
	}
	if msg.Final {
		flags |= flagFinal
	}
	if msg.Draining {
		flags |= flagDraining
	}
	dst = append(dst, byte(msg.Op), flags)

	var statsJSON []byte
	if msg.Stats != nil {
		var err error
		if statsJSON, err = json.Marshal(msg.Stats); err != nil {
			return dst, fmt.Errorf("manager: encode stats: %w", err)
		}
	}

	var mask uint64
	if msg.ID != 0 {
		mask |= fID
	}
	if msg.Action != "" {
		mask |= fAction
	}
	if msg.Ticket != 0 {
		mask |= fTicket
	}
	if msg.Sub != 0 {
		mask |= fSub
	}
	if msg.Err != "" {
		mask |= fErr
	}
	if len(msg.Acts) > 0 {
		mask |= fActs
	}
	if len(msg.Errs) > 0 {
		mask |= fErrs
	}
	if msg.Epoch != 0 {
		mask |= fEpoch
	}
	if msg.Prev != 0 {
		mask |= fPrev
	}
	if msg.Seq != 0 {
		mask |= fSeq
	}
	if msg.Ctr != 0 {
		mask |= fCtr
	}
	if len(msg.Tks) > 0 {
		mask |= fTks
	}
	if msg.Snap != nil {
		mask |= fSnap
	}
	if msg.Role != "" {
		mask |= fRole
	}
	if msg.Addr != "" {
		mask |= fAddr
	}
	if len(msg.Addrs) > 0 {
		mask |= fAddrs
	}
	if msg.Stats != nil {
		mask |= fStats
	}
	if len(msg.Subs) > 0 {
		mask |= fSubs
	}
	dst = binary.AppendUvarint(dst, mask)

	if mask&fID != 0 {
		dst = binary.AppendUvarint(dst, msg.ID)
	}
	if mask&fAction != 0 {
		dst = appendBinString(dst, msg.Action)
	}
	if mask&fTicket != 0 {
		dst = binary.AppendUvarint(dst, uint64(msg.Ticket))
	}
	if mask&fSub != 0 {
		dst = binary.AppendUvarint(dst, msg.Sub)
	}
	if mask&fErr != 0 {
		dst = appendBinString(dst, msg.Err)
	}
	if mask&fActs != 0 {
		dst = appendBinStrings(dst, msg.Acts)
	}
	if mask&fErrs != 0 {
		dst = appendBinStrings(dst, msg.Errs)
	}
	if mask&fEpoch != 0 {
		dst = binary.AppendUvarint(dst, msg.Epoch)
	}
	if mask&fPrev != 0 {
		dst = binary.AppendUvarint(dst, msg.Prev)
	}
	if mask&fSeq != 0 {
		dst = binary.AppendUvarint(dst, msg.Seq)
	}
	if mask&fCtr != 0 {
		dst = binary.AppendUvarint(dst, msg.Ctr)
	}
	if mask&fTks != 0 {
		dst = appendBinUints(dst, msg.Tks)
	}
	if mask&fSnap != 0 {
		dst = appendBinString(dst, string(msg.Snap))
	}
	if mask&fRole != 0 {
		dst = appendBinString(dst, msg.Role)
	}
	if mask&fAddr != 0 {
		dst = appendBinString(dst, msg.Addr)
	}
	if mask&fAddrs != 0 {
		dst = appendBinStrings(dst, msg.Addrs)
	}
	if mask&fStats != 0 {
		dst = appendBinString(dst, string(statsJSON))
	}
	if mask&fSubs != 0 {
		dst = appendBinUints(dst, msg.Subs)
	}
	return dst, nil
}

func appendBinString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBinStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendBinString(dst, s)
	}
	return dst
}

func appendBinUints(dst []byte, vs []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

// strIntern is a bounded string intern table: it turns repeated byte
// sequences (action names, roles, error strings) into shared heap
// strings so steady-state decoding allocates nothing. The map lookup
// with a []byte key compiles to a no-alloc probe.
type strIntern struct{ m map[string]string }

const (
	internMaxLen  = 256  // longer strings are one-off payloads, not vocabulary
	internMaxSize = 4096 // bound the table against adversarial vocabularies
)

func (si *strIntern) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if si == nil || len(b) > internMaxLen {
		return string(b)
	}
	if s, ok := si.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if si.m == nil {
		si.m = make(map[string]string)
	}
	if len(si.m) < internMaxSize {
		si.m[s] = s
	}
	return s
}

// decodeBinMsg parses one v2 payload (no length prefix) into msg,
// resetting it first. Strings are interned through in when non-nil.
// Slices are always freshly allocated — decoded messages outlive the
// decode buffer (replies cross channels, informs cross goroutines).
func decodeBinMsg(p []byte, msg *wireMsg, in *strIntern) error {
	*msg = wireMsg{}
	if len(p) < 2 {
		return errBinTruncated
	}
	code, flags := op(p[0]), p[1]
	p = p[2:]
	if !code.assigned() {
		return fmt.Errorf("manager: unknown binary opcode %d", code)
	}
	if flags&^flagKnown != 0 {
		return fmt.Errorf("manager: unknown flag bits %#x", flags&^flagKnown)
	}
	msg.Op = code
	msg.OK = flags&flagOK != 0
	msg.Perm = flags&flagPerm != 0
	msg.Final = flags&flagFinal != 0
	msg.Draining = flags&flagDraining != 0

	mask, p, err := binUvarint(p)
	if err != nil {
		return err
	}
	if mask&^uint64(fKnownMask) != 0 {
		return fmt.Errorf("manager: unknown field mask bits %#x", mask&^uint64(fKnownMask))
	}
	if mask&fID != 0 {
		if msg.ID, p, err = binUvarint(p); err != nil {
			return err
		}
	}
	if mask&fAction != 0 {
		var b []byte
		if b, p, err = binBytes(p); err != nil {
			return err
		}
		msg.Action = in.str(b)
	}
	if mask&fTicket != 0 {
		var v uint64
		if v, p, err = binUvarint(p); err != nil {
			return err
		}
		msg.Ticket = Ticket(v)
	}
	if mask&fSub != 0 {
		if msg.Sub, p, err = binUvarint(p); err != nil {
			return err
		}
	}
	if mask&fErr != 0 {
		var b []byte
		if b, p, err = binBytes(p); err != nil {
			return err
		}
		msg.Err = in.str(b)
	}
	if mask&fActs != 0 {
		if msg.Acts, p, err = binStrings(p, in); err != nil {
			return err
		}
	}
	if mask&fErrs != 0 {
		if msg.Errs, p, err = binStrings(p, in); err != nil {
			return err
		}
	}
	if mask&fEpoch != 0 {
		if msg.Epoch, p, err = binUvarint(p); err != nil {
			return err
		}
	}
	if mask&fPrev != 0 {
		if msg.Prev, p, err = binUvarint(p); err != nil {
			return err
		}
	}
	if mask&fSeq != 0 {
		if msg.Seq, p, err = binUvarint(p); err != nil {
			return err
		}
	}
	if mask&fCtr != 0 {
		if msg.Ctr, p, err = binUvarint(p); err != nil {
			return err
		}
	}
	if mask&fTks != 0 {
		if msg.Tks, p, err = binUints(p); err != nil {
			return err
		}
	}
	if mask&fSnap != 0 {
		var b []byte
		if b, p, err = binBytes(p); err != nil {
			return err
		}
		// Presence is meaning: even a zero-length Snap must stay non-nil
		// so the snapshot marker survives the round trip.
		msg.Snap = append(json.RawMessage{}, b...)
	}
	if mask&fRole != 0 {
		var b []byte
		if b, p, err = binBytes(p); err != nil {
			return err
		}
		msg.Role = in.str(b)
	}
	if mask&fAddr != 0 {
		var b []byte
		if b, p, err = binBytes(p); err != nil {
			return err
		}
		msg.Addr = in.str(b)
	}
	if mask&fAddrs != 0 {
		if msg.Addrs, p, err = binStrings(p, in); err != nil {
			return err
		}
	}
	if mask&fStats != 0 {
		var b []byte
		if b, p, err = binBytes(p); err != nil {
			return err
		}
		msg.Stats = new(StatsSnapshot)
		if err := json.Unmarshal(b, msg.Stats); err != nil {
			return fmt.Errorf("manager: decode stats: %w", err)
		}
	}
	if mask&fSubs != 0 {
		if msg.Subs, p, err = binUints(p); err != nil {
			return err
		}
	}
	if len(p) != 0 {
		return errBinTrailing
	}
	return nil
}

func binUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, p, errBinTruncated
	}
	return v, p[n:], nil
}

// binBytes reads a length-prefixed blob as a view into p. The length
// claim is checked against the remaining payload before any use, so a
// hostile frame cannot trigger a huge allocation.
func binBytes(p []byte) ([]byte, []byte, error) {
	n, p, err := binUvarint(p)
	if err != nil {
		return nil, p, err
	}
	if n > uint64(len(p)) {
		return nil, p, errBinTruncated
	}
	return p[:n], p[n:], nil
}

// binCount reads a slice count; every element takes at least one byte,
// so a count beyond the remaining payload is an oversized claim.
func binCount(p []byte) (int, []byte, error) {
	n, p, err := binUvarint(p)
	if err != nil {
		return 0, p, err
	}
	if n > uint64(len(p)) {
		return 0, p, errBinTruncated
	}
	return int(n), p, nil
}

func binStrings(p []byte, in *strIntern) ([]string, []byte, error) {
	n, p, err := binCount(p)
	if err != nil {
		return nil, p, err
	}
	if n == 0 {
		// The encoder never writes a zero-count slice (the mask bit is
		// simply absent), so normalize to nil: re-encoding a decoded
		// message is then a true fixpoint.
		return nil, p, nil
	}
	ss := make([]string, n)
	for i := range ss {
		var b []byte
		if b, p, err = binBytes(p); err != nil {
			return nil, p, err
		}
		ss[i] = in.str(b)
	}
	return ss, p, nil
}

func binUints(p []byte) ([]uint64, []byte, error) {
	n, p, err := binCount(p)
	if err != nil {
		return nil, p, err
	}
	if n == 0 {
		return nil, p, nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		if vs[i], p, err = binUvarint(p); err != nil {
			return nil, p, err
		}
	}
	return vs, p, nil
}

// --- per-connection codecs ----------------------------------------------

// binEncoder frames messages in v2 over a shared bufio.Writer, reusing
// one grow-only buffer so steady-state encodes allocate nothing.
type binEncoder struct {
	w   *bufio.Writer
	buf []byte
}

func newBinEncoder(w *bufio.Writer) *binEncoder {
	return &binEncoder{w: w, buf: make([]byte, 4, 4096)}
}

func (e *binEncoder) encode(msg *wireMsg) error {
	buf, err := appendBinMsg(e.buf[:4], msg)
	if err != nil {
		return err
	}
	e.buf = buf[:4] // keep the grown backing array, prefix space included
	n := len(buf) - 4
	if n > maxBinFrame {
		return fmt.Errorf("manager: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(n))
	if _, err := e.w.Write(buf); err != nil {
		return err
	}
	return e.w.Flush()
}

// binDecoder reads v2 frames from a shared bufio.Reader into a reused
// payload buffer, interning repeated strings.
type binDecoder struct {
	r   *bufio.Reader
	buf []byte
	in  strIntern
}

func newBinDecoder(r *bufio.Reader) *binDecoder { return &binDecoder{r: r} }

// binReadChunk bounds how much buffer a single read grows by, so an
// oversized length claim costs only the bytes the peer actually sends,
// never a maxBinFrame-sized up-front allocation.
const binReadChunk = 1 << 20

func (d *binDecoder) decode(msg *wireMsg) error {
	// The header reads into the reused payload buffer (a local array
	// would escape through the io.ReadFull interface call and cost one
	// allocation per frame).
	if cap(d.buf) < 4 {
		d.buf = make([]byte, 0, 4096)
	}
	hdr := d.buf[:4]
	if _, err := io.ReadFull(d.r, hdr); err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > maxBinFrame {
		return fmt.Errorf("manager: frame length claim %d exceeds limit", n)
	}
	if cap(d.buf) >= n {
		// Steady state: the buffer already fits, one read.
		if _, err := io.ReadFull(d.r, d.buf[:n]); err != nil {
			return err
		}
	} else {
		// Grow while reading, one bounded chunk at a time.
		buf := d.buf[:0]
		for len(buf) < n {
			m := n - len(buf)
			if m > binReadChunk {
				m = binReadChunk
			}
			off := len(buf)
			buf = growBytes(buf, m)
			if _, err := io.ReadFull(d.r, buf[off:]); err != nil {
				return err
			}
		}
		d.buf = buf
	}
	return decodeBinMsg(d.buf[:n], msg, &d.in)
}

// growBytes extends b by m bytes, doubling capacity like append does.
func growBytes(b []byte, m int) []byte {
	need := len(b) + m
	if cap(b) < need {
		newCap := 2 * cap(b)
		if newCap < need {
			newCap = need
		}
		nb := make([]byte, need, newCap)
		copy(nb, b)
		return nb
	}
	return b[:need]
}
