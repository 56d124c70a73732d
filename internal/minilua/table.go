package minilua

import (
	"slices"

	"chef/internal/interp"
	"chef/internal/lowlevel"
	"chef/internal/symexpr"
)

// tableTemplate is a table to clone: each bucket chain is kept as
// positions in order.
type tableTemplate struct {
	t      *TableVal
	chains [nBuckets][]int
}

func newTableTemplate(t *TableVal) tableTemplate {
	tt := tableTemplate{t: t}
	pos := make(map[*tableEntry]int, len(t.order))
	for i, e := range t.order {
		pos[e] = i
	}
	for b, chain := range t.buckets {
		for _, e := range chain {
			tt.chains[b] = append(tt.chains[b], pos[e])
		}
	}
	return tt
}

// clone returns a table equal to the template's: fresh entries, bucket
// chains and order, sharing the keys and values, which no guest operation
// mutates in place (an image points the values that are tables at copies).
func (tt *tableTemplate) clone() *TableVal {
	n := len(tt.t.order)
	entries := make([]tableEntry, n)
	ptrs := make([]*tableEntry, 2*n) // order, then the bucket chains
	c := &TableVal{arr: slices.Clone(tt.t.arr), order: ptrs[:n:n], hsize: tt.t.hsize}
	for i, e := range tt.t.order {
		entries[i] = *e
		c.order[i] = &entries[i]
	}
	rest := ptrs[n:]
	for b, chain := range tt.chains {
		if len(chain) == 0 {
			continue
		}
		bucket := rest[:len(chain):len(chain)]
		rest = rest[len(chain):]
		for j, i := range chain {
			bucket[j] = &entries[i]
		}
		c.buckets[b] = bucket
	}
	return c
}

// arrayLen returns the border of the array part (Lua's #).
func (t *TableVal) arrayLen() int {
	n := len(t.arr)
	for n > 0 {
		if _, isNil := t.arr[n-1].(NilVal); !isNil {
			break
		}
		n--
	}
	return n
}

// hashKey computes the hash of a table key.
func (vm *VM) hashKey(key Value) (lowlevel.SVal, *LuaError) {
	if vm.cfg.HashNeutralization {
		return c64(0), nil
	}
	switch k := key.(type) {
	case IntVal:
		return k.V, nil
	case StrVal:
		return interp.StrHash(vm.m, k.B, 31), nil
	case BoolVal:
		return lowlevel.ZExtV(k.B, symexpr.W64), nil
	}
	return lowlevel.SVal{}, luaErrf("table index is a %s value", key.TypeName())
}

func (vm *VM) bucketOf(h lowlevel.SVal) int {
	return interp.BucketIndex(vm.m, h, nBuckets, llpcTableBucket)
}

// hashFind hashes key and scans its bucket, one step and one comparison
// branch per live entry, and returns the bucket index and the entry holding
// key (nil when there is none).
func (vm *VM) hashFind(t *TableVal, key Value) (int, *tableEntry, *LuaError) {
	h, err := vm.hashKey(key)
	if err != nil {
		return 0, nil, err
	}
	b := vm.bucketOf(h)
	for _, e := range t.buckets[b] {
		if e.deleted {
			continue
		}
		vm.m.Step(1)
		if vm.valuesEqualBranch(e.key, key) {
			return b, e, nil
		}
	}
	return b, nil, nil
}

// arrayIndexOf resolves an integer key against the array part; ok is false
// when the key belongs in the hash part. Symbolic in-range indices are
// symbolic pointers and concretize by forking.
func (vm *VM) arrayIndexOf(t *TableVal, k IntVal, forWrite bool) (int, bool) {
	n := int64(len(t.arr))
	hi := n
	if forWrite {
		hi = n + 1 // writing one past the end extends the array part
	}
	inRange := lowlevel.BoolAndV(
		lowlevel.SleV(c64(1), k.V),
		lowlevel.SleV(k.V, c64(uint64(hi))),
	)
	if !vm.m.Branch(llpcTableArrayIdx, inRange) {
		return 0, false
	}
	v := k.V
	if v.IsSymbolic() {
		return int(vm.m.ConcretizeFork(llpcTableArrayIdx+1000, v)) - 1, true
	}
	return int(v.C) - 1, true
}

// indexGet implements t[k] (returns nil for missing keys, as Lua does).
func (vm *VM) indexGet(tv, key Value) (Value, *LuaError) {
	vm.m.Step(1)
	switch t := tv.(type) {
	case *TableVal:
		if _, isNil := key.(NilVal); isNil {
			return Nil, nil
		}
		if ik, ok := key.(IntVal); ok {
			if idx, inArr := vm.arrayIndexOf(t, ik, false); inArr {
				return t.arr[idx], nil
			}
		}
		_, e, err := vm.hashFind(t, key)
		if err != nil {
			return nil, err
		}
		if e == nil {
			return Nil, nil
		}
		return e.val, nil
	case StrVal:
		// Indexing a string looks up the string library (s.sub etc. is not
		// Lua, but s:method() routes through OpSelfField; plain indexing is
		// an error).
		return nil, luaErrf("attempt to index a string value")
	}
	return nil, luaErrf("attempt to index a %s value", tv.TypeName())
}

// indexSet implements t[k] = v, with nil assignment acting as deletion.
func (vm *VM) indexSet(tv, key, val Value) *LuaError {
	vm.m.Step(1)
	t, ok := tv.(*TableVal)
	if !ok {
		return luaErrf("attempt to index a %s value", tv.TypeName())
	}
	if _, isNil := key.(NilVal); isNil {
		return luaErrf("table index is nil")
	}
	if ik, ok := key.(IntVal); ok {
		if idx, inArr := vm.arrayIndexOf(t, ik, true); inArr {
			if idx == len(t.arr) {
				t.arr = append(t.arr, val)
			} else {
				t.arr[idx] = val
			}
			return nil
		}
	}
	b, e, err := vm.hashFind(t, key)
	if err != nil {
		return err
	}
	_, isNilVal := val.(NilVal)
	switch {
	case e != nil && isNilVal:
		e.deleted = true
		t.hsize--
	case e != nil:
		e.val = val
	case !isNilVal:
		e = &tableEntry{key: key, val: val}
		t.buckets[b] = append(t.buckets[b], e)
		t.order = append(t.order, e)
		t.hsize++
	}
	return nil
}

// luaIterator drives generic for loops.
type luaIterator interface {
	Value
	next(vm *VM) (k, v Value, more bool)
}

// pairsIter iterates the array part then the hash part.
type pairsIter struct {
	t  *TableVal
	ai int
	hi int
}

func (*pairsIter) TypeName() string { return "iterator" }

func (it *pairsIter) next(vm *VM) (Value, Value, bool) {
	vm.m.Step(1)
	for it.ai < len(it.t.arr) {
		i := it.ai
		it.ai++
		if _, isNil := it.t.arr[i].(NilVal); !isNil {
			return goInt(int64(i + 1)), it.t.arr[i], true
		}
	}
	for it.hi < len(it.t.order) {
		e := it.t.order[it.hi]
		it.hi++
		if !e.deleted {
			return e.key, e.val, true
		}
	}
	return nil, nil, false
}

// ipairsIter iterates 1..n of the array part, stopping at the first nil.
type ipairsIter struct {
	t *TableVal
	i int
}

func (*ipairsIter) TypeName() string { return "iterator" }

func (it *ipairsIter) next(vm *VM) (Value, Value, bool) {
	vm.m.Step(1)
	if it.i >= len(it.t.arr) {
		return nil, nil, false
	}
	v := it.t.arr[it.i]
	if _, isNil := v.(NilVal); isNil {
		return nil, nil, false
	}
	it.i++
	return goInt(int64(it.i)), v, true
}
