package minilua

import (
	"maps"
	"slices"
	"sync"

	"chef/internal/interp"
	"chef/internal/lowlevel"
)

// Image is the state a program's main chunk leaves a VM in under one
// interp.Config, recorded once so that a run can start at its entry call:
// the globals, and the chunk's log_pc calls, steps and concrete branches
// (the stdlib install's included), which a run replays to its host and
// machine instead of running the chunk. The chunk runs before any input
// exists, so every run's chunk does exactly this.
//
// Functions, builtins and scalars are immutable, so VMs share them. Tables
// are not: a VM copies a table of the image, the stdlib's included, with
// tableTemplate.clone when it first reads the global holding it, with the
// tables it reaches, and points the copies at each other as the image's
// tables point at theirs. Until its first global write, when it copies the
// map and every table in it, a VM reads the image's globals map.
type Image struct {
	globals map[string]Value // read only
	tables  []imageTable     // every table reachable from globals
	pos     map[*TableVal]int
	prefix  interp.Prefix
}

// imageTable is a table of an image and the slots of it that hold tables
// of the image.
type imageTable struct {
	tableTemplate
	refs []tableRef
}

type tableRef struct {
	entry bool // order[pos].val, else arr[pos]
	pos   int
	table int // index in Image.tables
}

// freeVMs holds released VMs. A pool keeps about one per processor and
// lets collections drop them, so idle VMs hold little memory.
var freeVMs = sync.Pool{New: func() any { return new(VM) }}

// imageStepLimit bounds the chunk run that builds an image; a chunk that
// takes longer runs in full on every run.
const imageStepLimit = 1 << 20

// StartModule returns a VM in the state RunModule leaves one in, and the
// same outcome, with m and host charged and traced the same way. It starts
// from the image of prog under cfg, built on first use, and runs the chunk
// in full only when the chunk raises, prints or runs long, or when the
// chunk would reach m's step limit. Release gives the VM back for reuse.
func StartModule(prog *Program, m *lowlevel.Machine, host Host, cfg interp.Config) (*VM, Outcome) {
	img := prog.images.Get(cfg, func(cfg interp.Config) *Image { return buildImage(prog, cfg) })
	if img == nil || !img.prefix.Fits(m) {
		return RunModule(prog, m, host, cfg)
	}
	img.prefix.Replay(m, host)
	vm := freeVMs.Get().(*VM)
	vm.prog, vm.cfg, vm.img, vm.m, vm.host = prog, cfg, img, m, host
	vm.globals, vm.sharedGlobals = img.globals, true
	vm.tables = slices.Grow(vm.tables[:0], len(img.tables))[:len(img.tables)]
	return vm, Outcome{}
}

// Release gives the VM back for a later StartModule, of any program, to
// reuse with its value stack grown. The VM must not be used afterwards.
func (vm *VM) Release() {
	clear(vm.stack[:cap(vm.stack)])
	vm.stack = vm.stack[:0]
	clear(vm.tables[:cap(vm.tables)])
	vm.prog, vm.img, vm.m, vm.host, vm.globals, vm.printed = nil, nil, nil, nil, nil, nil
	freeVMs.Put(vm)
}

// buildImage runs prog's chunk on a concrete machine and records it. It
// returns nil when runs must run the chunk in full: the chunk raised,
// printed or ran past imageStepLimit, or left a value that an image cannot
// copy (an iterator, or a table used as a key).
func buildImage(prog *Program, cfg interp.Config) *Image {
	m := lowlevel.NewConcreteMachine(nil, imageStepLimit)
	rec := interp.NewPrefixRecorder(m)
	var vm *VM
	var out Outcome
	status := m.RunConcrete(func(m *lowlevel.Machine) { vm, out = RunModule(prog, m, rec, cfg) })
	if status != lowlevel.RunCompleted || out.Error != "" || len(out.Printed) > 0 {
		return nil
	}
	img := &Image{globals: vm.globals, pos: map[*TableVal]int{}, prefix: rec.Prefix()}
	for _, v := range img.globals {
		if !img.index(v) {
			return nil
		}
	}
	return img
}

// index adds the tables reachable from v to img.tables, and reports whether
// every value reachable is one that a VM can share or copy.
func (img *Image) index(v Value) bool {
	switch x := v.(type) {
	case NilVal, BoolVal, IntVal, StrVal, *FuncVal, *BuiltinVal:
		return true
	case *TableVal:
		if _, ok := img.pos[x]; ok {
			return true
		}
		i := len(img.tables)
		img.pos[x] = i
		img.tables = append(img.tables, imageTable{tableTemplate: newTableTemplate(x)})
		var refs []tableRef
		for j, a := range x.arr {
			if !img.index(a) {
				return false
			}
			if t, ok := a.(*TableVal); ok {
				refs = append(refs, tableRef{pos: j, table: img.pos[t]})
			}
		}
		for j, e := range x.order {
			// A copy keeps its keys, so a table key would stay the
			// image's table (only HashNeutralization admits one).
			if _, isTable := e.key.(*TableVal); isTable || !img.index(e.key) || !img.index(e.val) {
				return false
			}
			if t, ok := e.val.(*TableVal); ok {
				refs = append(refs, tableRef{entry: true, pos: j, table: img.pos[t]})
			}
		}
		img.tables[i].refs = refs
		return true
	}
	return false
}

// global returns the global name. A table of the image reads as the VM's
// copy of it.
func (vm *VM) global(name string) (Value, bool) {
	v, ok := vm.globals[name]
	if vm.sharedGlobals {
		if t, isTable := v.(*TableVal); isTable {
			return vm.tableCopy(vm.img.pos[t]), true
		}
	}
	return v, ok
}

// setGlobal binds the global name to v, first giving the VM its own globals
// map if it still reads the image's.
func (vm *VM) setGlobal(name string, v Value) {
	if vm.sharedGlobals {
		globals := maps.Clone(vm.globals)
		for name, g := range globals {
			if t, ok := g.(*TableVal); ok {
				globals[name] = vm.tableCopy(vm.img.pos[t])
			}
		}
		vm.globals, vm.sharedGlobals = globals, false
	}
	vm.globals[name] = v
}

// tableCopy returns the VM's copy of the image's table i, making it, and
// the copies it points at, on first use.
func (vm *VM) tableCopy(i int) *TableVal {
	if c := vm.tables[i]; c != nil {
		return c
	}
	t := &vm.img.tables[i]
	c := t.clone()
	vm.tables[i] = c // before the refs, so cycles end
	for _, r := range t.refs {
		if r.entry {
			c.order[r.pos].val = vm.tableCopy(r.table)
		} else {
			c.arr[r.pos] = vm.tableCopy(r.table)
		}
	}
	return c
}
