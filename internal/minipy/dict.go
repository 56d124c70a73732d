package minipy

import (
	"strings"

	"chef/internal/interp"
	"chef/internal/lowlevel"
	"chef/internal/symexpr"
)

// DictVal is MiniPy's dictionary: an open-hashing table with a fixed bucket
// count, faithful to the interpreter structure that makes symbolic keys
// expensive: inserting a symbolic key (a) asks the solver to reason about
// the hash function and (b) forks per feasible bucket — unless the §4.2
// hash-neutralization optimization degenerates the hash.
type DictVal struct {
	buckets [nBuckets][]*dictEntry
	order   []*dictEntry // insertion order, for deterministic iteration
	size    int
}

const nBuckets = 8

type dictEntry struct {
	key     Value
	val     Value
	deleted bool
}

// NewDict returns an empty dictionary.
func NewDict() *DictVal { return &DictVal{} }

// Len returns the number of live entries.
func (d *DictVal) Len() int { return d.size }

// TypeName implements Value.
func (*DictVal) TypeName() string { return "dict" }

func (d *DictVal) reprConcrete() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	for _, e := range d.order {
		if e.deleted {
			continue
		}
		if !first {
			sb.WriteString(", ")
		}
		first = false
		sb.WriteString(Repr(e.key))
		sb.WriteString(": ")
		sb.WriteString(Repr(e.val))
	}
	sb.WriteByte('}')
	return sb.String()
}

// hashValue computes the hash of a key as a width-64 value. With hash
// neutralization every key hashes to the same constant, honoring the hash
// contract while removing solver-hostile constraints.
func (vm *VM) hashValue(key Value) (lowlevel.SVal, *Exc) {
	if vm.cfg.HashNeutralization {
		return c64(0), nil
	}
	switch k := key.(type) {
	case IntVal:
		if k.Big != nil {
			h := c64(0)
			for _, dg := range k.Big.D {
				vm.m.Step(1)
				h = lowlevel.AddV(lowlevel.MulV(h, c64(1000003)), dg)
			}
			return h, nil
		}
		return k.V, nil
	case StrVal:
		return interp.StrHash(vm.m, k.B, 1000003), nil
	case BoolVal:
		return lowlevel.ZExtV(k.B, symexpr.W64), nil
	case NoneVal:
		return c64(0x23d4), nil
	}
	return lowlevel.SVal{}, excf("TypeError", "unhashable type: '%s'", key.TypeName())
}

// bucketIndex selects the bucket for a hash, forking per feasible bucket
// when the hash is symbolic.
func (vm *VM) bucketIndex(h lowlevel.SVal) int {
	return interp.BucketIndex(vm.m, h, nBuckets, llpcDictBucket)
}

// dictFind hashes key and scans its bucket, one step and one comparison
// branch per live entry, and returns the bucket index and the entry holding
// key (nil when there is none).
func (vm *VM) dictFind(d *DictVal, key Value) (int, *dictEntry, *Exc) {
	h, exc := vm.hashValue(key)
	if exc != nil {
		return 0, nil, exc
	}
	idx := vm.bucketIndex(h)
	for _, e := range d.buckets[idx] {
		if e.deleted {
			continue
		}
		vm.m.Step(1)
		eq, exc := vm.valuesEqualBranch(e.key, key)
		if exc != nil {
			return idx, nil, exc
		}
		if eq {
			return idx, e, nil
		}
	}
	return idx, nil, nil
}

// dictSet inserts or replaces a key.
func (vm *VM) dictSet(d *DictVal, key, val Value) *Exc {
	idx, e, exc := vm.dictFind(d, key)
	if exc != nil {
		return exc
	}
	if e != nil {
		e.val = val
		return nil
	}
	e = &dictEntry{key: key, val: val}
	d.buckets[idx] = append(d.buckets[idx], e)
	d.order = append(d.order, e)
	d.size++
	return nil
}

// dictLookup finds a key.
func (vm *VM) dictLookup(d *DictVal, key Value) (Value, bool, *Exc) {
	_, e, exc := vm.dictFind(d, key)
	if e == nil {
		return nil, false, exc
	}
	return e.val, true, nil
}

// dictDelete removes a key, reporting whether it existed.
func (vm *VM) dictDelete(d *DictVal, key Value) (bool, *Exc) {
	_, e, exc := vm.dictFind(d, key)
	if e == nil {
		return false, exc
	}
	e.deleted = true
	d.size--
	return true, nil
}

// dictKeys returns the live keys in insertion order.
func (d *DictVal) dictKeys() []Value {
	out := make([]Value, 0, d.size)
	for _, e := range d.order {
		if !e.deleted {
			out = append(out, e.key)
		}
	}
	return out
}

// dictValues returns the live values in insertion order.
func (d *DictVal) dictValues() []Value {
	out := make([]Value, 0, d.size)
	for _, e := range d.order {
		if !e.deleted {
			out = append(out, e.val)
		}
	}
	return out
}

// dictItems returns [k, v] pairs in insertion order.
func (d *DictVal) dictItems() []Value {
	out := make([]Value, 0, d.size)
	for _, e := range d.order {
		if !e.deleted {
			out = append(out, &ListVal{Items: []Value{e.key, e.val}})
		}
	}
	return out
}
