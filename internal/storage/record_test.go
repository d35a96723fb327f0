package storage

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzLogRecord checks the record codec against encoding/json in both
// directions. Encoder: for any entry, appendRecord writes json.Marshal's
// bytes, and the parsed path reads every plain entry it writes. Decoder:
// for any line, the parsed path accepts only what json.Unmarshal
// accepts, with an equal entry, and decode agrees with json.Unmarshal on
// every line.
//
// The entry is name, args split at '|' (none when args is empty; an
// empty non-nil slice when it is "|" alone), and seq.
func FuzzLogRecord(f *testing.F) {
	f.Add([]byte(`{"a":"a0","s":17}`), "a0", "", uint64(17))
	f.Add([]byte(`{"a":"visit","v":["p1","p2"],"s":3}`), "visit", "p1|p2", uint64(3))
	f.Fuzz(func(t *testing.T, line []byte, name, args string, seq uint64) {
		e := Entry{Name: name, Seq: seq}
		switch args {
		case "":
		case "|":
			e.Args = []string{}
		default:
			e.Args = strings.Split(args, "|")
		}
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("json.Marshal(%#v): %v", e, err)
		}
		got := appendRecord([]byte("prefix"), e)
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("appendRecord(%#v) = %s, json.Marshal = %s", e, got[len("prefix"):], want)
		}
		d := newRecordDecoder()
		if _, ok := d.parse(want); plainEntry(e) && !ok {
			t.Fatalf("the parsed path rejects its own record %s", want)
		}
		checkDecode(t, d, want)
		checkDecode(t, d, line)
	})
}

// checkDecode compares the decoder on line with json.Unmarshal.
func checkDecode(t *testing.T, d *recordDecoder, line []byte) {
	t.Helper()
	var want Entry
	jerr := json.Unmarshal(line, &want)
	if got, ok := d.parse(line); ok {
		if jerr != nil {
			t.Fatalf("the parsed path accepts %q, which json.Unmarshal rejects: %v", line, jerr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("the parsed path reads %q as %#v, json.Unmarshal as %#v", line, got, want)
		}
	}
	got, err := d.decode(line)
	if (err == nil) != (jerr == nil) {
		t.Fatalf("decode(%q) error %v, json.Unmarshal error %v", line, err, jerr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decode reads %q as %#v, json.Unmarshal as %#v", line, got, want)
	}
}

// TestLogBufferDoesNotAllocate: staging a plain entry in the write
// buffer costs no allocation once the record scratch has grown.
func TestLogBufferDoesNotAllocate(t *testing.T) {
	s, err := OpenSegmented(filepath.Join(t.TempDir(), "seg"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e := Entry{Name: "visit", Args: []string{"p17"}, Seq: 1}
	if n := testing.AllocsPerRun(1000, func() {
		e.Seq++
		if err := s.Buffer(e); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Segmented.Buffer makes %.1f allocations per entry, want 0", n)
	}
}
