package minilua

import (
	"sync"
	"testing"

	"chef/internal/interp"
	"chef/internal/lowlevel"
)

// installStdlibReference installs the stdlib as NewVM did before the
// template: every key and function built afresh and inserted one by one
// through indexSet on the VM's own machine.
func installStdlibReference(vm *VM) {
	g := map[string]Value{}
	vm.globals = g
	g["print"] = &BuiltinVal{Name: "print", Fn: biPrint}
	g["error"] = &BuiltinVal{Name: "error", Fn: biError}
	g["pcall"] = &BuiltinVal{Name: "pcall", Fn: biPcall}
	g["tostring"] = &BuiltinVal{Name: "tostring", Fn: biToString}
	g["tonumber"] = &BuiltinVal{Name: "tonumber", Fn: biToNumber}
	g["type"] = &BuiltinVal{Name: "type", Fn: biType}
	g["pairs"] = &BuiltinVal{Name: "pairs", Fn: biPairs}
	g["ipairs"] = &BuiltinVal{Name: "ipairs", Fn: biIpairs}
	g["assert"] = &BuiltinVal{Name: "assert", Fn: biAssert}

	strTbl := NewTable()
	for _, name := range sortedNames(stringLib) {
		_ = vm.indexSet(strTbl, MkStr(name), &BuiltinVal{Name: "string." + name, Fn: stringLib[name]})
	}
	g["string"] = strTbl

	tblTbl := NewTable()
	for _, name := range sortedNames(tableLib) {
		_ = vm.indexSet(tblTbl, MkStr(name), &BuiltinVal{Name: "table." + name, Fn: tableLib[name]})
	}
	g["table"] = tblTbl
}

// referenceVM runs the reference install on a fresh concrete machine.
func referenceVM(cfg interp.Config, stepLimit int64) (*VM, lowlevel.RunStatus) {
	vm := &VM{m: lowlevel.NewConcreteMachine(nil, stepLimit), cfg: cfg}
	return vm, vm.m.RunConcrete(func(*lowlevel.Machine) { installStdlibReference(vm) })
}

// templateVM runs NewVM on a fresh concrete machine. The VM is nil when
// NewVM hung.
func templateVM(cfg interp.Config, stepLimit int64) (*VM, *lowlevel.Machine, lowlevel.RunStatus) {
	m := lowlevel.NewConcreteMachine(nil, stepLimit)
	var vm *VM
	status := m.RunConcrete(func(m *lowlevel.Machine) { vm = NewVM(nil, m, nil, cfg) })
	return vm, m, status
}

// sameTable reports how got differs from want: entry order, bucket chains
// (as positions in order) and hsize. Keys compare by bytes, functions by
// name.
func sameTable(t *testing.T, name string, got, want *TableVal) {
	t.Helper()
	if got.hsize != want.hsize || len(got.order) != len(want.order) || len(got.arr) != len(want.arr) {
		t.Fatalf("%s: hsize %d, %d entries, %d array slots; want %d, %d, %d", name,
			got.hsize, len(got.order), len(got.arr), want.hsize, len(want.order), len(want.arr))
	}
	pos := func(t *TableVal, e *tableEntry) int {
		for i, o := range t.order {
			if o == e {
				return i
			}
		}
		return -1
	}
	for i, e := range got.order {
		w := want.order[i]
		if Repr(e.key) != Repr(w.key) || Repr(e.val) != Repr(w.val) || e.deleted != w.deleted {
			t.Errorf("%s: entry %d is %s=%s, want %s=%s", name, i, Repr(e.key), Repr(e.val), Repr(w.key), Repr(w.val))
		}
	}
	for b := range got.buckets {
		if len(got.buckets[b]) != len(want.buckets[b]) {
			t.Fatalf("%s: bucket %d holds %d entries, want %d", name, b, len(got.buckets[b]), len(want.buckets[b]))
		}
		for j, e := range got.buckets[b] {
			if g, w := pos(got, e), pos(want, want.buckets[b][j]); g != w || g < 0 {
				t.Errorf("%s: bucket %d position %d is entry %d, want %d", name, b, j, g, w)
			}
		}
	}
}

func checkStdlib(t *testing.T, cfg interp.Config) {
	t.Helper()
	want, _ := referenceVM(cfg, 1<<40)
	got, _, _ := templateVM(cfg, 1<<40)
	if got.m.Steps() != want.m.Steps() || got.m.Branches() != want.m.Branches() {
		t.Errorf("charged %d steps and %d branches, want %d and %d",
			got.m.Steps(), got.m.Branches(), want.m.Steps(), want.m.Branches())
	}
	if len(got.globals) != len(want.globals) {
		t.Fatalf("%d globals, want %d", len(got.globals), len(want.globals))
	}
	for name, w := range want.globals {
		g, ok := got.globals[name]
		if !ok {
			t.Fatalf("global %s missing", name)
		}
		if wt, isTable := w.(*TableVal); isTable {
			sameTable(t, name, g.(*TableVal), wt)
		} else if Repr(g) != Repr(w) {
			t.Errorf("global %s = %s, want %s", name, Repr(g), Repr(w))
		}
	}
}

// TestStdlibTemplateMatchesFreshInstall pins NewVM's cloned stdlib to the
// install it replaces, under every build: the same tables, and the same
// steps and concrete branches charged to the machine.
func TestStdlibTemplateMatchesFreshInstall(t *testing.T) {
	for i, cfg := range interp.OptLevels() {
		t.Run(interp.OptLevelNames()[i], func(t *testing.T) { checkStdlib(t, cfg) })
	}

	t.Run("clones are independent", func(t *testing.T) {
		a, _, _ := templateVM(interp.Optimized, 1<<40)
		str := a.globals["string"].(*TableVal)
		if err := a.indexSet(str, MkStr("len"), Nil); err != nil {
			t.Fatal(err)
		}
		if err := a.indexSet(str, MkStr("extra"), MkInt(1)); err != nil {
			t.Fatal(err)
		}
		checkStdlib(t, interp.Optimized)
	})

	// A step limit the install reaches: the run hangs having charged what
	// the reference install charged up to its hang.
	t.Run("install reaches the step limit", func(t *testing.T) {
		for _, cfg := range []interp.Config{interp.Vanilla, interp.Optimized} {
			full, _ := referenceVM(cfg, 1<<40)
			limit := full.m.Steps() / 2
			want, ws := referenceVM(cfg, limit)
			_, gm, gs := templateVM(cfg, limit)
			if ws != lowlevel.RunHang || gs != lowlevel.RunHang {
				t.Fatalf("status %v, reference %v; want both %v", gs, ws, lowlevel.RunHang)
			}
			if gm.Steps() != want.m.Steps() || gm.Branches() != want.m.Branches() {
				t.Errorf("hung at %d steps and %d branches, want %d and %d",
					gm.Steps(), gm.Branches(), want.m.Steps(), want.m.Branches())
			}
		}
	})

	// VMs built from many goroutines at once, with the templates built
	// among them, so that -race covers the shared template.
	t.Run("concurrent", func(t *testing.T) {
		stdlibTemplates = new(interp.PerConfig[*stdlibTemplate])
		levels := interp.OptLevels()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cfg := levels[g%len(levels)]
				vm, _, _ := templateVM(cfg, 1<<40)
				// Write to the clone as a guest would, racing the others.
				_ = vm.indexSet(vm.globals["table"].(*TableVal), MkStr("insert"), Nil)
			}()
		}
		wg.Wait()
		for _, cfg := range interp.OptLevels() {
			checkStdlib(t, cfg)
		}
	})
}

// TestGuestCallAllocs bounds what a call of a two-parameter function
// allocates once the VM has warmed up: only the boxed result of a + b. The
// register window comes from the VM's one value stack.
func TestGuestCallAllocs(t *testing.T) {
	prog := mustCompile(t, "function f(a, b)\n  return a + b\nend\n")
	m := lowlevel.NewConcreteMachine(nil, 1<<50)
	vm, out := RunModule(prog, m, nil, interp.Optimized)
	if out.Error != "" {
		t.Fatal(out.Error)
	}
	args := []Value{MkInt(1), MkInt(2)}
	if n := testing.AllocsPerRun(100, func() { vm.CallFunction("f", args) }); n > 1 {
		t.Errorf("a two-parameter call allocates %v times, want at most 1", n)
	}
}
