package storage

import (
	"encoding/json"
	"strconv"
	"sync"
)

// The record codec shared by the file backends. A record is one Entry
// in exactly the bytes json.Marshal writes for it (see Entry), so logs
// written before the codec existed replay unchanged and logs written
// now replay on an older build.

// appendRecord appends e's record to dst: byte for byte what
// json.Marshal(e) writes, without its allocations. An entry with a
// string json would escape goes through json.Marshal itself.
func appendRecord(dst []byte, e Entry) []byte {
	if !plainEntry(e) {
		b, _ := json.Marshal(e) // an Entry of strings and a uint64 always marshals
		return append(dst, b...)
	}
	dst = append(dst, `{"a":"`...)
	dst = append(dst, e.Name...)
	dst = append(dst, '"')
	if len(e.Args) > 0 {
		dst = append(dst, `,"v":[`...)
		for i, v := range e.Args {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '"')
			dst = append(dst, v...)
			dst = append(dst, '"')
		}
		dst = append(dst, ']')
	}
	if e.Seq != 0 {
		dst = append(dst, `,"s":`...)
		dst = strconv.AppendUint(dst, e.Seq, 10)
	}
	return append(dst, '}')
}

// plainEntry reports whether json.Marshal writes every string of e
// verbatim: printable ASCII only, minus the quote, the backslash and
// the HTML characters <, > and & it escapes by default.
func plainEntry(e Entry) bool {
	if !plainString(e.Name) {
		return false
	}
	for _, v := range e.Args {
		if !plainString(v) {
			return false
		}
	}
	return true
}

func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// recordDecoder decodes the records of one replay. Lines in the form
// appendRecord writes without json are parsed by hand, allocating
// nothing but the argument values: names are interned, so each
// distinct name is allocated once per replay. Every other line goes to
// json.Unmarshal, which keeps the verdicts on torn and corrupt lines
// and reads hand-edited or escaped records.
type recordDecoder struct {
	names map[string]string
	vals  [][]byte // scratch: the argument values of the line being parsed
	buf   *[]byte  // the line scanner's buffer, for every file of the replay
}

// lineBufs keeps the line scanners' buffers between replays: a log
// shorter than a segment replays one file, so without them every
// restart would allocate one.
var lineBufs = sync.Pool{New: func() any { b := make([]byte, 64*1024); return &b }}

func newRecordDecoder() *recordDecoder {
	return &recordDecoder{names: make(map[string]string), buf: lineBufs.Get().(*[]byte)}
}

// close hands the scanner buffer on to the next replay.
func (d *recordDecoder) close() { lineBufs.Put(d.buf) }

// decode returns the entry of one line, or json.Unmarshal's error.
func (d *recordDecoder) decode(line []byte) (Entry, error) {
	if e, ok := d.parse(line); ok {
		return e, nil
	}
	// Declared here, not above: the pointer json.Unmarshal takes moves
	// the entry to the heap, which the parsed path must not pay for.
	var e Entry
	if err := json.Unmarshal(line, &e); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// parse reads a line of exactly the form appendRecord writes without
// json: `{"a":"name"`, then optionally `,"v":["x",...]` with at least
// one value, then optionally `,"s":N` with N a decimal uint64 without
// leading zeros, then `}`, and nothing else, strings of printable
// ASCII without quote or backslash. Every line it accepts,
// json.Unmarshal accepts with the same entry; ok is false otherwise.
func (d *recordDecoder) parse(b []byte) (e Entry, ok bool) {
	if b, ok = cut(b, `{"a":`); !ok {
		return Entry{}, false
	}
	name, b, ok := parseString(b)
	if !ok {
		return Entry{}, false
	}
	if n, seen := d.names[string(name)]; seen {
		e.Name = n
	} else {
		e.Name = string(name)
		d.names[e.Name] = e.Name
	}
	if b, ok = cut(b, `,"v":[`); ok {
		d.vals = d.vals[:0]
		for {
			var v []byte
			if v, b, ok = parseString(b); !ok {
				return Entry{}, false
			}
			d.vals = append(d.vals, v)
			if len(b) == 0 {
				return Entry{}, false
			}
			if b[0] == ']' {
				b = b[1:]
				break
			}
			if b[0] != ',' {
				return Entry{}, false
			}
			b = b[1:]
		}
		e.Args = make([]string, len(d.vals))
		for i, v := range d.vals {
			e.Args[i] = string(v)
		}
	}
	if b, ok = cut(b, `,"s":`); ok {
		if e.Seq, b, ok = parseUint(b); !ok {
			return Entry{}, false
		}
	}
	if string(b) != "}" {
		return Entry{}, false
	}
	return e, true
}

// cut strips prefix from b, reporting whether b had it; b is returned
// unchanged when it did not.
func cut(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return b, false
	}
	return b[len(prefix):], true
}

// parseString reads a quoted string of plain bytes (see plainString,
// though <, > and & are accepted raw, as json.Unmarshal does) from the
// front of b and returns its contents and the rest of b.
func parseString(b []byte) (s, rest []byte, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return nil, b, false
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return b[1:i], b[i+1:], true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return nil, b, false
		}
	}
	return nil, b, false
}

// parseUint reads a JSON number that is a uint64 — digits, no leading
// zero unless the number is 0, no overflow — from the front of b.
func parseUint(b []byte) (n uint64, rest []byte, ok bool) {
	i := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if n > (1<<64-1-d)/10 {
			return 0, b, false
		}
		n = n*10 + d
	}
	if i == 0 || (i > 1 && b[0] == '0') {
		return 0, b, false
	}
	return n, b[i:], true
}
