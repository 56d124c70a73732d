package obs

import (
	"encoding/binary"
	"encoding/json"
	"strconv"
)

// AppendJSON appends the JSON encoding of ev to dst and returns the extended
// slice. The bytes equal json.Marshal(ev): fields in struct order, t and kind
// always present, every other field omitted when zero. It exists so the trace
// sinks encode without reflection; FuzzAppendJSON pins it to encoding/json, so
// a field added to Event must be added here too.
func AppendJSON(dst []byte, ev *Event) []byte {
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, ev.T, 10)
	dst = appendInt(dst, `,"wall_ns":`, ev.WallNs)
	dst = append(dst, `,"kind":`...)
	dst = appendString(dst, ev.Kind)
	dst = appendStr(dst, `,"session":`, ev.Session)

	dst = appendUint(dst, `,"llpc":`, ev.LLPC)
	dst = appendUint(dst, `,"from":`, ev.From)
	dst = appendUint(dst, `,"hlpc":`, ev.HLPC)
	dst = appendUint(dst, `,"dyn_hlpc":`, ev.DynHLPC)
	dst = appendUint(dst, `,"opcode":`, uint64(ev.Opcode))

	dst = appendStr(dst, `,"decision":`, ev.Decision)

	dst = appendStr(dst, `,"result":`, ev.Result)
	dst = appendInt(dst, `,"virt_cost":`, ev.VirtCost)
	dst = appendInt(dst, `,"wall_cost_ns":`, ev.WallCost)
	if ev.CacheHit {
		dst = append(dst, `,"cache_hit":true`...)
	}
	dst = appendInt(dst, `,"constraints":`, int64(ev.Constraints))
	dst = appendUint(dst, `,"path_sig":`, ev.PathSig)

	dst = appendStr(dst, `,"status":`, ev.Status)
	dst = appendInt(dst, `,"steps":`, ev.Steps)
	dst = appendInt(dst, `,"depth":`, int64(ev.Depth))
	if ev.Diverged {
		dst = append(dst, `,"diverged":true`...)
	}
	dst = appendInt(dst, `,"hl_len":`, int64(ev.HLLen))
	dst = appendStr(dst, `,"sig":`, ev.Sig)

	dst = appendUint(dst, `,"class":`, ev.Class)

	dst = appendStr(dst, `,"layer":`, ev.Layer)
	dst = appendStr(dst, `,"parent":`, ev.Parent)
	dst = appendInt(dst, `,"self_virt":`, ev.SelfVirt)
	dst = appendInt(dst, `,"self_wall_ns":`, ev.SelfWall)

	dst = appendInt(dst, `,"retries":`, int64(ev.Retries))

	dst = appendInt(dst, `,"seed":`, ev.Seed)
	dst = appendStr(dst, `,"strategy":`, ev.Strategy)
	dst = appendInt(dst, `,"tests":`, int64(ev.Tests))
	dst = appendInt(dst, `,"hl_paths":`, int64(ev.HLPaths))
	dst = appendInt(dst, `,"ll_paths":`, ev.LLPaths)
	return append(dst, '}')
}

// appendInt appends an omitempty signed field.
func appendInt(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendUint appends an omitempty unsigned field.
func appendUint(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendUint(append(dst, key...), v, 10)
}

// appendStr appends an omitempty string field.
func appendStr(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(append(dst, key...), s)
}

// appendString appends s as a JSON string. Printable ASCII that needs no
// escape is copied as is; anything else goes through encoding/json so its
// HTML-safe escaping, invalid-UTF-8 replacement and U+2028/U+2029 handling
// stay exact.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// StringTable numbers the distinct strings of one record stream. Records
// store the string fields that repeat from event to event (kind, session,
// decision, result, status, layer, parent) as their number here. A table is
// not safe for concurrent use; Strings returns a prefix that later interning
// only extends, so a reader may decode with it while a writer goes on.
//
// A table made by NewStringCache numbers nothing itself: it stands in front
// of a table that several goroutines share and remembers the numbers that
// table gave it.
type StringTable struct {
	ids  map[string]uint64
	strs []string
	// last holds, indexed by a symbol field's record tag, the string that
	// field interned last and its number; it grows to the highest tag seen.
	// On a served job's events it answers about three lookups in five
	// without hashing.
	last []lastSym
	// number, set by NewStringCache, numbers a string the table has not
	// seen.
	number func(string) uint64
}

type lastSym struct {
	s  string
	id uint64
}

// NewStringCache returns a table whose new strings are numbered by number,
// typically the Intern of a table shared under a lock. Records encoded
// against the cache read back with the shared table's Strings, and the
// encoding goroutine calls number, and so takes the lock, only for a string
// it has not seen. The cache's own Strings is empty.
func NewStringCache(number func(string) uint64) StringTable {
	return StringTable{number: number}
}

// intern numbers s, the nonempty value of the symbol field tagged tag.
func (t *StringTable) intern(tag byte, s string) uint64 {
	if int(tag) >= len(t.last) {
		t.last = append(t.last, make([]lastSym, int(tag)+1-len(t.last))...)
	}
	l := &t.last[tag]
	if l.s == s { // an unused entry holds "", which s is not
		return l.id
	}
	l.s, l.id = s, t.Intern(s)
	return l.id
}

// Intern returns the number of s, numbering it first when it is new.
func (t *StringTable) Intern(s string) uint64 {
	id, ok := t.ids[s]
	if !ok {
		if t.ids == nil {
			t.ids = map[string]uint64{}
		}
		if t.number != nil {
			id = t.number(s)
		} else {
			id = uint64(len(t.strs))
			t.strs = append(t.strs, s)
		}
		t.ids[s] = id
	}
	return id
}

// Strings returns the interned strings, indexed by number.
func (t *StringTable) Strings() []string { return t.strs }

// AppendRecord appends the compact record of ev to dst and returns the
// extended slice: each nonzero field in Event order as a one-byte tag (its
// position, from 1) and a varint (zigzag for signed values), repeated strings
// as their number in strs, other strings as a length and their bytes, and a 0
// byte to close the record. DecodeRecord reverses it; FuzzTraceRecord pins
// the pair to each other and to AppendJSON.
func AppendRecord(dst []byte, ev *Event, strs *StringTable) []byte {
	c := recordCodec{buf: dst, enc: strs}
	c.event(ev)
	return append(c.buf, 0)
}

// DecodeRecord decodes the record at the front of src, whose repeated
// strings index strs, and returns the event and the bytes after the record.
// It panics on bytes AppendRecord did not write.
func DecodeRecord(src []byte, strs []string) (ev Event, rest []byte) {
	c := recordCodec{buf: src, dec: strs}
	c.value() // reads the first tag
	c.event(&ev)
	if c.next != 0 {
		panic(errCorruptRecord)
	}
	return ev, c.buf
}

const errCorruptRecord = "obs: corrupt trace record"

// recordCodec walks Event's fields in struct order and either encodes the
// nonzero ones (enc set) or decodes the stored ones (enc nil), so the two
// directions share one field list and cannot disagree on a tag. Encoding
// only reads the event.
type recordCodec struct {
	buf  []byte       // encoding: the output; decoding: the unread input
	enc  *StringTable // encoding: interns repeated strings; nil when decoding
	dec  []string     // decoding: the strings records index
	tag  byte         // tag of the field being visited
	next byte         // decoding: tag of the next stored field, 0 at the end
}

// event visits every field of ev in struct order. A field added to Event must
// be added here too.
func (c *recordCodec) event(ev *Event) {
	c.i64(&ev.T)
	c.i64(&ev.WallNs)
	c.sym(&ev.Kind)
	c.sym(&ev.Session)

	c.u64(&ev.LLPC)
	c.u64(&ev.From)
	c.u64(&ev.HLPC)
	c.u64(&ev.DynHLPC)
	c.u32(&ev.Opcode)

	c.sym(&ev.Decision)

	c.sym(&ev.Result)
	c.i64(&ev.VirtCost)
	c.i64(&ev.WallCost)
	c.flag(&ev.CacheHit)
	c.int(&ev.Constraints)
	c.u64(&ev.PathSig)

	c.sym(&ev.Status)
	c.i64(&ev.Steps)
	c.int(&ev.Depth)
	c.flag(&ev.Diverged)
	c.int(&ev.HLLen)
	c.str(&ev.Sig)

	c.u64(&ev.Class)

	c.sym(&ev.Layer)
	c.sym(&ev.Parent)
	c.i64(&ev.SelfVirt)
	c.i64(&ev.SelfWall)

	c.int(&ev.Retries)

	c.i64(&ev.Seed)
	c.str(&ev.Strategy)
	c.int(&ev.Tests)
	c.int(&ev.HLPaths)
	c.i64(&ev.LLPaths)
}

// stored advances to the next field and reports whether the record holds
// it. Encoding, next stays 0, which no tag equals, so that is whether the
// field is nonzero; decoding, the event starts zero, so it is whether the
// next stored tag is this field's. It and the per-kind methods below inline,
// so a zero field costs no call.
func (c *recordCodec) stored(nonzero bool) bool {
	c.tag++
	return nonzero || c.next == c.tag
}

func (c *recordCodec) u64(p *uint64) {
	if c.stored(*p != 0) {
		c.uvarint(p)
	}
}

func (c *recordCodec) u32(p *uint32) {
	if c.stored(*p != 0) {
		v := uint64(*p)
		c.uvarint(&v)
		if c.enc == nil {
			*p = uint32(v)
		}
	}
}

func (c *recordCodec) i64(p *int64) {
	if c.stored(*p != 0) {
		c.varint(p)
	}
}

func (c *recordCodec) int(p *int) {
	if c.stored(*p != 0) {
		v := int64(*p)
		c.varint(&v)
		if c.enc == nil {
			*p = int(v)
		}
	}
}

// flag stores a true bool as its tag alone.
func (c *recordCodec) flag(p *bool) {
	if c.stored(*p) {
		c.value()
		if c.enc == nil {
			*p = true
		}
	}
}

// sym stores a repeated string as its number in the string table.
func (c *recordCodec) sym(p *string) {
	if c.stored(*p != "") {
		c.symbol(p)
	}
}

// str stores a string inline, as its length and bytes.
func (c *recordCodec) str(p *string) {
	if c.stored(*p != "") {
		c.inline(p)
	}
}

// value brackets a stored field's value: encoding appends the field's tag
// before the value; decoding, which has read that tag already, reads the
// next one after it.
func (c *recordCodec) value() {
	if c.enc != nil {
		c.buf = append(c.buf, c.tag)
	} else {
		c.next = c.byte()
	}
}

// The methods below write or read one stored field's value.

func (c *recordCodec) uvarint(p *uint64) {
	if c.enc != nil {
		c.value()
		c.buf = binary.AppendUvarint(c.buf, *p)
		return
	}
	*p = c.readUvarint()
	c.value()
}

func (c *recordCodec) varint(p *int64) {
	if c.enc != nil {
		c.value()
		c.buf = binary.AppendVarint(c.buf, *p)
		return
	}
	v, n := binary.Varint(c.buf)
	if n <= 0 {
		panic(errCorruptRecord)
	}
	*p, c.buf = v, c.buf[n:]
	c.value()
}

func (c *recordCodec) symbol(p *string) {
	if c.enc != nil {
		c.value()
		c.buf = binary.AppendUvarint(c.buf, c.enc.intern(c.tag, *p))
		return
	}
	*p = c.dec[c.readUvarint()]
	c.value()
}

func (c *recordCodec) inline(p *string) {
	if c.enc != nil {
		c.value()
		c.buf = append(binary.AppendUvarint(c.buf, uint64(len(*p))), *p...)
		return
	}
	n := c.readUvarint()
	if n > uint64(len(c.buf)) {
		panic(errCorruptRecord)
	}
	*p, c.buf = string(c.buf[:n]), c.buf[n:]
	c.value()
}

func (c *recordCodec) readUvarint() uint64 {
	v, n := binary.Uvarint(c.buf)
	if n <= 0 {
		panic(errCorruptRecord)
	}
	c.buf = c.buf[n:]
	return v
}

func (c *recordCodec) byte() byte {
	if len(c.buf) == 0 {
		panic(errCorruptRecord)
	}
	b := c.buf[0]
	c.buf = c.buf[1:]
	return b
}
