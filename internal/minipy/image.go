package minipy

import (
	"sync"

	"chef/internal/interp"
	"chef/internal/lowlevel"
)

// Image is the state a program's module body leaves a VM in under one
// interp.Config, recorded once so that a run can start at its entry call:
// the globals, and the module's log_pc calls, steps and concrete branches,
// which a run replays to its host and machine instead of running the
// module. The module runs before any input exists, so every run's module
// does exactly this.
//
// Functions and classes are immutable once made (defaults and class
// constants are literals), so VMs share them. What a run may mutate —
// lists, dicts and instances — or what points at such an object — a bound
// method — each VM copies, aliasing kept.
type Image struct {
	globals map[string]Value // read only; a VM copies it before writing
	objs    []Value          // the objects each VM copies, indexed by pos
	pos     map[Value]int
	prefix  interp.Prefix
}

// freeVMs holds released VMs. A pool keeps about one per processor and
// lets collections drop them, so idle VMs hold little memory.
var freeVMs = sync.Pool{New: func() any { return new(VM) }}

// imageStepLimit bounds the module run that builds an image; a module that
// takes longer runs in full on every run.
const imageStepLimit = 1 << 20

// StartModule returns a VM in the state RunModule leaves one in, and the
// same outcome, with m and host charged and traced the same way. It starts
// from the image of prog under cfg, built on first use, and runs the module
// in full only when the module raises, prints or runs long, or when the
// module would reach m's step limit. Release gives the VM back for reuse.
func StartModule(prog *Program, m *lowlevel.Machine, host Host, cfg interp.Config) (*VM, Outcome) {
	img := prog.images.Get(cfg, func(cfg interp.Config) *Image { return buildImage(prog, cfg) })
	if img == nil || !img.prefix.Fits(m) {
		return RunModule(prog, m, host, cfg)
	}
	img.prefix.Replay(m, host)
	vm := freeVMs.Get().(*VM)
	vm.prog, vm.cfg, vm.m, vm.host = prog, cfg, m, host
	vm.globals, vm.sharedGlobals = img.copyGlobals()
	return vm, Outcome{}
}

// Release gives the VM back for a later StartModule, of any program, to
// reuse with its value stack and frames grown. The VM must not be used
// afterwards.
func (vm *VM) Release() {
	clear(vm.vals[:cap(vm.vals)])
	vm.vals = vm.vals[:0]
	for _, f := range vm.frames {
		f.code, f.locals = nil, nil
	}
	vm.prog, vm.m, vm.host, vm.globals, vm.printed = nil, nil, nil, nil, nil
	freeVMs.Put(vm)
}

// buildImage runs prog's module on a concrete machine and records it. It
// returns nil when runs must run the module in full: the module raised,
// printed or ran past imageStepLimit, or left a value that an image cannot
// copy (an iterator, or a dict key that VMs would copy).
func buildImage(prog *Program, cfg interp.Config) *Image {
	m := lowlevel.NewConcreteMachine(nil, imageStepLimit)
	rec := interp.NewPrefixRecorder(m)
	var vm *VM
	var out Outcome
	status := m.RunConcrete(func(m *lowlevel.Machine) { vm, out = RunModule(prog, m, rec, cfg) })
	if status != lowlevel.RunCompleted || out.Exception != "" || len(out.Printed) > 0 {
		return nil
	}
	img := &Image{globals: vm.globals, pos: map[Value]int{}, prefix: rec.Prefix()}
	for _, v := range img.globals {
		if !img.index(v) {
			return nil
		}
	}
	return img
}

// index adds the objects reachable from v that a VM copies to objs, and
// reports whether every value reachable is one that a VM can share or copy.
func (img *Image) index(v Value) bool {
	switch x := v.(type) {
	case NoneVal, BoolVal, IntVal, StrVal, *BuiltinVal, *ClassVal, *ExcInstanceVal:
		return true
	case *FuncVal:
		if x.Self == nil {
			return true
		}
	case *MethodVal:
		if x.recv == nil {
			return true
		}
	case *ListVal, *DictVal, *InstanceVal:
	default:
		return false
	}
	if _, ok := img.pos[v]; ok {
		return true
	}
	img.pos[v] = len(img.objs)
	img.objs = append(img.objs, v)
	switch x := v.(type) {
	case *FuncVal:
		return img.index(x.Self)
	case *MethodVal:
		return img.index(x.recv)
	case *ListVal:
		for _, it := range x.Items {
			if !img.index(it) {
				return false
			}
		}
	case *DictVal:
		for _, e := range x.order {
			if !img.index(e.key) || !img.index(e.val) {
				return false
			}
			// A copy keeps its keys, so a key that VMs copy would stay
			// the image's object (only HashNeutralization admits one).
			switch e.key.(type) {
			case *ListVal, *DictVal, *InstanceVal, *FuncVal, *MethodVal:
				if _, copied := img.pos[e.key]; copied {
					return false
				}
			}
		}
	case *InstanceVal:
		for _, a := range x.Attrs {
			if !img.index(a) {
				return false
			}
		}
	}
	return true
}

// copyGlobals returns the globals of a VM started from the image: the
// image's own map, shared until the VM writes, when nothing in it needs
// copying, and otherwise a map of copies.
func (img *Image) copyGlobals() (globals map[string]Value, shared bool) {
	if len(img.objs) == 0 {
		return img.globals, true
	}
	c := imageCopy{img: img, copies: make([]Value, len(img.objs))}
	globals = make(map[string]Value, len(img.globals))
	for name, v := range img.globals {
		globals[name] = c.copy(v)
	}
	return globals, false
}

// imageCopy copies the image's objects for one VM, each once.
type imageCopy struct {
	img    *Image
	copies []Value // by position in img.objs
}

func (c *imageCopy) copy(v Value) Value {
	switch v.(type) {
	case *ListVal, *DictVal, *InstanceVal, *FuncVal, *MethodVal:
	default:
		return v
	}
	i, ok := c.img.pos[v]
	if !ok {
		return v // a function or method that is not bound to an object
	}
	if c.copies[i] != nil {
		return c.copies[i]
	}
	// Each copy is recorded before its contents are copied, so cycles end.
	switch x := v.(type) {
	case *ListVal:
		n := &ListVal{Items: make([]Value, len(x.Items))}
		c.copies[i] = n
		for j, it := range x.Items {
			n.Items[j] = c.copy(it)
		}
	case *DictVal:
		n := &DictVal{order: make([]*dictEntry, len(x.order)), size: x.size}
		c.copies[i] = n
		entries := make([]dictEntry, len(x.order))
		moved := make(map[*dictEntry]*dictEntry, len(x.order))
		for j, e := range x.order {
			entries[j] = dictEntry{key: e.key, val: c.copy(e.val), deleted: e.deleted}
			n.order[j] = &entries[j]
			moved[e] = &entries[j]
		}
		for b, chain := range x.buckets {
			for _, e := range chain {
				n.buckets[b] = append(n.buckets[b], moved[e])
			}
		}
	case *InstanceVal:
		n := &InstanceVal{Class: x.Class, Attrs: make(map[string]Value, len(x.Attrs))}
		c.copies[i] = n
		for name, a := range x.Attrs {
			n.Attrs[name] = c.copy(a)
		}
	case *FuncVal:
		n := &FuncVal{Code: x.Code, Defaults: x.Defaults, Class: x.Class}
		c.copies[i] = n
		n.Self = c.copy(x.Self)
	case *MethodVal:
		n := &MethodVal{def: x.def}
		c.copies[i] = n
		n.recv = c.copy(x.recv)
	}
	return c.copies[i]
}
