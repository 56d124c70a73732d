package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"
)

// trickyStrings are the string values the encoder's fast path must hand to
// encoding/json: quotes, backslashes, control bytes, HTML-escaped bytes,
// invalid UTF-8, the JavaScript line separators and non-ASCII text.
var trickyStrings = []string{
	"ll-fork", `a"b`, `a\b`, "\x00", "\x01x", "\x1f", "\t\n\r", "\x7f",
	"<", ">", "&", "\xff", "caf\xc3", "\xed\xa0\x80", "\u2028", "\u2029",
	"é", "日本語", "ten<&>\"é/x \x01", "simplejson/cupa-path/7", " ~",
}

// byteSource hands out fuzz bytes, yielding zeros once they run out.
type byteSource struct{ data []byte }

func (s *byteSource) next() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *byteSource) uint64() uint64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = s.next()
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// eventFromBytes fills every exported Event field by reflection, so a field
// added to Event is exercised without touching this test. A leading byte per
// field chooses zero or nonzero; a field of a kind this function does not
// know fails the test.
func eventFromBytes(t testing.TB, data []byte) Event {
	return fillEvent(t, &byteSource{data: data}, false)
}

// fillEvent is eventFromBytes; with allNonzero every field is set.
func fillEvent(t testing.TB, src *byteSource, allNonzero bool) Event {
	var ev Event
	v := reflect.ValueOf(&ev).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !v.Type().Field(i).IsExported() {
			continue
		}
		sel := src.next()
		if allNonzero {
			sel |= 1
		}
		if sel&1 == 0 {
			continue
		}
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			n := int64(src.uint64())
			f.SetInt(n)
			if f.Int() == 0 {
				f.SetInt(-1)
			}
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			f.SetUint(src.uint64())
			if f.Uint() == 0 {
				f.SetUint(1)
			}
		case reflect.String:
			var s []byte
			for n := int(sel >> 1 & 3); n >= 0; n-- {
				s = append(s, trickyStrings[int(src.next())%len(trickyStrings)]...)
				raw := min(int(src.next())%4, len(src.data))
				s = append(s, src.data[:raw]...)
				src.data = src.data[raw:]
			}
			f.SetString(string(s))
		default:
			t.Fatalf("Event.%s: kind %s not covered by eventFromBytes", v.Type().Field(i).Name, f.Kind())
		}
	}
	return ev
}

// allSet returns an Event with every exported field nonzero, its strings
// built from trickyStrings[b] and its numbers from repeated b bytes.
func allSet(t testing.TB, b byte) Event {
	return fillEvent(t, &byteSource{data: bytes.Repeat([]byte{b}, 4096)}, true)
}

func checkAppendJSON(t *testing.T, ev *Event) {
	t.Helper()
	want, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	got := AppendJSON(prefix, ev)
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("AppendJSON clobbered its prefix: %q", got)
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendJSON mismatch for %+v\n got %s\nwant %s", *ev, got[len(prefix):], want)
	}
}

func TestAppendJSONMatchesMarshal(t *testing.T) {
	var events []Event
	events = append(events, Event{}, Event{Kind: KindLLFork, LLPC: 7, HLPC: 3, Decision: "flip-taken"})
	for i := range trickyStrings {
		events = append(events, allSet(t, byte(i)))
	}
	nonzero := 0
	full := reflect.ValueOf(events[2])
	for i := 0; i < full.NumField(); i++ {
		if !full.Field(i).IsZero() {
			nonzero++
		}
	}
	if nonzero != full.NumField() {
		t.Fatalf("allSet left %d of %d fields zero", full.NumField()-nonzero, full.NumField())
	}
	// One field at a time, so each omitempty branch is checked alone.
	for i := 0; i < full.NumField(); i++ {
		var ev Event
		reflect.ValueOf(&ev).Elem().Field(i).Set(full.Field(i))
		events = append(events, ev)
	}
	for i := range events {
		checkAppendJSON(t, &events[i])
	}

	// obs.JSONL writes what a json.Encoder would, less the measured wall
	// durations that DisableWallClock drops.
	var got, want bytes.Buffer
	tr := NewJSONL(&got)
	tr.DisableWallClock()
	enc := json.NewEncoder(&want)
	for i := range events {
		tr.Emit(events[i])
		ev := events[i]
		ev.WallCost, ev.SelfWall = 0, 0
		if err := enc.Encode(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("JSONL output differs from json.Encoder:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
}

func FuzzAppendJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 300))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 18, 2})
	for i := range trickyStrings {
		f.Add(bytes.Repeat([]byte{0x07, byte(i), 1}, 100))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ev := eventFromBytes(t, data)
		checkAppendJSON(t, &ev)
	})
}

// checkRecord encodes ev after a prefix, decodes it back and checks that the
// decoded event equals ev and renders to the same JSON.
func checkRecord(t *testing.T, ev *Event, strs *StringTable) {
	t.Helper()
	prefix := []byte("prefix")
	rec := AppendRecord(prefix, ev, strs)
	if !bytes.Equal(rec[:len(prefix)], prefix) {
		t.Fatalf("AppendRecord clobbered its prefix: %q", rec)
	}
	got, rest := DecodeRecord(rec[len(prefix):], strs.Strings())
	if len(rest) != 0 {
		t.Fatalf("DecodeRecord left %d of %d bytes", len(rest), len(rec)-len(prefix))
	}
	if !reflect.DeepEqual(got, *ev) {
		t.Fatalf("record round trip mismatch\n got %+v\nwant %+v", got, *ev)
	}
	if g, w := AppendJSON(nil, &got), AppendJSON(nil, ev); !bytes.Equal(g, w) {
		t.Fatalf("decoded event renders differently\n got %s\nwant %s", g, w)
	}
}

func FuzzTraceRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 300))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 3, 18, 2})
	for i := range trickyStrings {
		f.Add(bytes.Repeat([]byte{0x07, byte(i), 1}, 100))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ev := eventFromBytes(t, data)
		var strs StringTable
		checkRecord(t, &ev, &strs)
		checkRecord(t, &ev, &strs) // again, with its strings already interned
	})
}
