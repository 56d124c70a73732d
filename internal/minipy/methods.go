package minipy

import "chef/internal/lowlevel"

// getattr resolves obj.name: instance attributes, class methods, and the
// built-in method tables of str/list/dict.
func (vm *VM) getattr(obj Value, name string) (Value, *Exc) {
	vm.m.Step(1)
	switch o := obj.(type) {
	case *InstanceVal:
		if v, ok := o.Attrs[name]; ok {
			return v, nil
		}
		if m, ok := o.Class.lookup(name); ok {
			return &FuncVal{Code: m.Code, Defaults: m.Defaults, Self: o, Class: m.Class}, nil
		}
		if v, ok := o.Class.lookupConst(name); ok {
			return v, nil
		}
		return nil, excf("AttributeError", "'%s' object has no attribute '%s'", o.Class.Name, name)
	case *ClassVal:
		if m, ok := o.lookup(name); ok {
			return m, nil
		}
		if v, ok := o.lookupConst(name); ok {
			return v, nil
		}
		return nil, excf("AttributeError", "type '%s' has no attribute '%s'", o.Name, name)
	case *ExcInstanceVal:
		if name == "message" || name == "args" {
			return o.Msg, nil
		}
		return nil, excf("AttributeError", "'%s' object has no attribute '%s'", o.Type, name)
	case StrVal:
		return vm.strMethod(o, name)
	case *ListVal:
		return vm.listMethod(o, name)
	case *DictVal:
		return vm.dictMethod(o, name)
	}
	return nil, excf("AttributeError", "'%s' object has no attribute '%s'", obj.TypeName(), name)
}

// MethodVal is a native method of a str, list or dict bound to the value it
// was read from, its receiver. It behaves as a builtin of the method's
// name.
type MethodVal struct {
	def  *methodDef
	str  StrVal // the receiver of a str method
	recv Value  // the receiver of a list or dict method
}

// TypeName implements Value.
func (*MethodVal) TypeName() string { return "builtin" }

// methodDef is a native method: its name and its body, which finds the
// receiver in the bound method.
type methodDef struct {
	name string
	fn   func(vm *VM, b *MethodVal, args []Value) (Value, *Exc)
}

// The method tables of str, list and dict, by name.
var strMethods, listMethods, dictMethods map[string]*methodDef

func init() {
	table := func(fns map[string]func(vm *VM, b *MethodVal, args []Value) (Value, *Exc)) map[string]*methodDef {
		t := make(map[string]*methodDef, len(fns))
		for name, fn := range fns {
			t[name] = &methodDef{name, fn}
		}
		return t
	}
	strMethods = table(map[string]func(vm *VM, b *MethodVal, args []Value) (Value, *Exc){
		"find": strFindMethod, "index": strFindMethod,
		"startswith": strAffixMethod, "endswith": strAffixMethod,
		"strip": strStripMethod, "lstrip": strStripMethod, "rstrip": strStripMethod,
		"split": strSplitMethod, "join": strJoinMethod, "replace": strReplaceMethod,
		"count": strCountMethod, "lower": strCaseMethod, "upper": strCaseMethod,
		"isdigit": strClassMethod, "isalpha": strClassMethod, "isspace": strClassMethod,
		"rfind": strRFindMethod, "splitlines": strSplitLinesMethod, "zfill": strZFillMethod,
		"rjust": strJustMethod, "ljust": strJustMethod, "partition": strPartitionMethod,
		"capitalize": strCapitalizeMethod,
	})
	listMethods = table(map[string]func(vm *VM, b *MethodVal, args []Value) (Value, *Exc){
		"append": listAppendMethod, "extend": listExtendMethod, "pop": listPopMethod,
		"insert": listInsertMethod, "index": listIndexMethod, "reverse": listReverseMethod,
	})
	dictMethods = table(map[string]func(vm *VM, b *MethodVal, args []Value) (Value, *Exc){
		"get": dictGetMethod, "setdefault": dictSetDefaultMethod, "keys": dictKeysMethod,
		"values": dictValuesMethod, "items": dictItemsMethod, "has_key": dictHasKeyMethod,
		"update": dictUpdateMethod,
	})
}

func needArgs(name string, args []Value, lo, hi int) *Exc {
	if len(args) < lo || len(args) > hi {
		return excf("TypeError", "%s() takes %d to %d arguments (%d given)", name, lo, hi, len(args))
	}
	return nil
}

func argStr(name string, args []Value, i int) (StrVal, *Exc) {
	s, ok := args[i].(StrVal)
	if !ok {
		return StrVal{}, excf("TypeError", "%s() argument %d must be str, not %s", name, i+1, args[i].TypeName())
	}
	return s, nil
}

func argInt(name string, args []Value, i int) (IntVal, *Exc) {
	v, ok := asInt(args[i])
	if !ok {
		return IntVal{}, excf("TypeError", "%s() argument %d must be int, not %s", name, i+1, args[i].TypeName())
	}
	return v, nil
}

// concreteIdx concretizes a small-int argument used as a structural position
// (e.g. find's start offset).
func (vm *VM) concreteIdx(v IntVal) int {
	if v.Big != nil {
		return 1 << 30
	}
	if v.V.IsSymbolic() {
		return int(int64(vm.m.ConcretizeFork(llpcListIndexCheck+3000, v.V)))
	}
	return int(v.V.Int())
}

func (vm *VM) strMethod(s StrVal, name string) (Value, *Exc) {
	if def, ok := strMethods[name]; ok {
		return &MethodVal{def: def, str: s}, nil
	}
	return nil, excf("AttributeError", "'str' object has no attribute '%s'", name)
}

func strFindMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	name := b.def.name
	if e := needArgs(name, args, 1, 2); e != nil {
		return nil, e
	}
	sub, e := argStr(name, args, 0)
	if e != nil {
		return nil, e
	}
	start := 0
	if len(args) == 2 {
		iv, e := argInt(name, args, 1)
		if e != nil {
			return nil, e
		}
		start = vm.concreteIdx(iv)
	}
	pos := vm.strFind(b.str, sub, start)
	if pos < 0 && name == "index" {
		return nil, excf("ValueError", "substring not found")
	}
	return goInt(int64(pos)), nil
}

func strAffixMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 1, 1); e != nil {
		return nil, e
	}
	sub, e := argStr(b.def.name, args, 0)
	if e != nil {
		return nil, e
	}
	s := b.str
	if sub.Len() > s.Len() {
		return goBool(false), nil
	}
	pos := 0
	if b.def.name == "endswith" {
		pos = s.Len() - sub.Len()
	}
	return boolValue(vm.strMatchAt(s, sub, pos)), nil
}

func strStripMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 0, 0); e != nil {
		return nil, e
	}
	mode := 3
	if b.def.name == "lstrip" {
		mode = 1
	} else if b.def.name == "rstrip" {
		mode = 2
	}
	return vm.strStrip(b.str, mode), nil
}

func strSplitMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 0, 1); e != nil {
		return nil, e
	}
	sep := StrVal{}
	if len(args) == 1 {
		sv, e := argStr(b.def.name, args, 0)
		if e != nil {
			return nil, e
		}
		sep = sv
	}
	return vm.strSplit(b.str, sep), nil
}

func strJoinMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 1, 1); e != nil {
		return nil, e
	}
	lst, ok := args[0].(*ListVal)
	if !ok {
		return nil, excf("TypeError", "join() argument must be a list")
	}
	return vm.strJoin(b.str, lst)
}

func strReplaceMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 2, 2); e != nil {
		return nil, e
	}
	oldS, e := argStr(b.def.name, args, 0)
	if e != nil {
		return nil, e
	}
	newS, e := argStr(b.def.name, args, 1)
	if e != nil {
		return nil, e
	}
	return vm.strReplace(b.str, oldS, newS), nil
}

func strCountMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 1, 1); e != nil {
		return nil, e
	}
	sub, e := argStr(b.def.name, args, 0)
	if e != nil {
		return nil, e
	}
	return goInt(int64(vm.strCount(b.str, sub))), nil
}

func strCaseMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 0, 0); e != nil {
		return nil, e
	}
	return vm.strCaseMap(b.str, b.def.name == "lower"), nil
}

func strClassMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	switch b.def.name {
	case "isdigit":
		return boolValue(vm.strClassAll(b.str, isDigitExpr, llpcStrIsDigit)), nil
	case "isalpha":
		return boolValue(vm.strClassAll(b.str, isAlphaExpr, llpcStrIsAlpha)), nil
	}
	return boolValue(vm.strClassAll(b.str, isSpaceExpr, llpcStrIsSpace)), nil
}

func strRFindMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 1, 1); e != nil {
		return nil, e
	}
	sub, e := argStr(b.def.name, args, 0)
	if e != nil {
		return nil, e
	}
	return goInt(int64(vm.strRFind(b.str, sub))), nil
}

func strSplitLinesMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 0, 0); e != nil {
		return nil, e
	}
	return vm.strSplit(b.str, MkStr("\n")), nil
}

func strZFillMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 1, 1); e != nil {
		return nil, e
	}
	iv, e := argInt(b.def.name, args, 0)
	if e != nil {
		return nil, e
	}
	return vm.strPad(b.str, vm.concreteIdx(iv), '0', true), nil
}

func strJustMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	name := b.def.name
	if e := needArgs(name, args, 1, 2); e != nil {
		return nil, e
	}
	iv, e := argInt(name, args, 0)
	if e != nil {
		return nil, e
	}
	fill := byte(' ')
	if len(args) == 2 {
		fs, e := argStr(name, args, 1)
		if e != nil {
			return nil, e
		}
		if fs.Len() != 1 {
			return nil, excf("TypeError", "fill character must be exactly one character")
		}
		fill = byte(fs.B[0].C)
	}
	return vm.strPad(b.str, vm.concreteIdx(iv), fill, name == "rjust"), nil // rjust pads on the left
}

func strPartitionMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 1, 1); e != nil {
		return nil, e
	}
	sep, e := argStr(b.def.name, args, 0)
	if e != nil {
		return nil, e
	}
	if sep.Len() == 0 {
		return nil, excf("ValueError", "empty separator")
	}
	s := b.str
	pos := vm.strFind(s, sep, 0)
	if pos < 0 {
		return &ListVal{Items: []Value{s, MkStr(""), MkStr("")}}, nil
	}
	return &ListVal{Items: []Value{
		StrVal{B: append([]lowlevel.SVal(nil), s.B[:pos]...)},
		sep,
		StrVal{B: append([]lowlevel.SVal(nil), s.B[pos+sep.Len():]...)},
	}}, nil
}

func strCapitalizeMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 0, 0); e != nil {
		return nil, e
	}
	low := vm.strCaseMap(b.str, true)
	if low.Len() == 0 {
		return low, nil
	}
	head := vm.strCaseMap(StrVal{B: low.B[:1]}, false)
	return strConcat(head, StrVal{B: low.B[1:]}), nil
}

func (vm *VM) listMethod(l *ListVal, name string) (Value, *Exc) {
	if def, ok := listMethods[name]; ok {
		return &MethodVal{def: def, recv: l}, nil
	}
	return nil, excf("AttributeError", "'list' object has no attribute '%s'", name)
}

func listAppendMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 1, 1); e != nil {
		return nil, e
	}
	l := b.recv.(*ListVal)
	l.Items = append(l.Items, args[0])
	return None, nil
}

func listExtendMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 1, 1); e != nil {
		return nil, e
	}
	other, ok := args[0].(*ListVal)
	if !ok {
		return nil, excf("TypeError", "extend() argument must be a list")
	}
	l := b.recv.(*ListVal)
	l.Items = append(l.Items, other.Items...)
	return None, nil
}

func listPopMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 0, 1); e != nil {
		return nil, e
	}
	l := b.recv.(*ListVal)
	if len(l.Items) == 0 {
		return nil, excf("IndexError", "pop from empty list")
	}
	i := len(l.Items) - 1
	if len(args) == 1 {
		iv, e := argInt(b.def.name, args, 0)
		if e != nil {
			return nil, e
		}
		i, e = vm.seqIndex(iv, len(l.Items), "pop index out of range")
		if e != nil {
			return nil, e
		}
	}
	v := l.Items[i]
	l.Items = append(l.Items[:i], l.Items[i+1:]...)
	return v, nil
}

func listInsertMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 2, 2); e != nil {
		return nil, e
	}
	iv, e := argInt(b.def.name, args, 0)
	if e != nil {
		return nil, e
	}
	l := b.recv.(*ListVal)
	i := vm.concreteIdx(iv)
	if i < 0 {
		i = 0
	}
	if i > len(l.Items) {
		i = len(l.Items)
	}
	l.Items = append(l.Items[:i], append([]Value{args[1]}, l.Items[i:]...)...)
	return None, nil
}

func listIndexMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 1, 1); e != nil {
		return nil, e
	}
	for i, it := range b.recv.(*ListVal).Items {
		eq, e := vm.valuesEqualBranch(it, args[0])
		if e != nil {
			return nil, e
		}
		if eq {
			return goInt(int64(i)), nil
		}
	}
	return nil, excf("ValueError", "value is not in list")
}

func listReverseMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	items := b.recv.(*ListVal).Items
	for i, j := 0, len(items)-1; i < j; i, j = i+1, j-1 {
		items[i], items[j] = items[j], items[i]
	}
	return None, nil
}

func (vm *VM) dictMethod(d *DictVal, name string) (Value, *Exc) {
	if def, ok := dictMethods[name]; ok {
		return &MethodVal{def: def, recv: d}, nil
	}
	return nil, excf("AttributeError", "'dict' object has no attribute '%s'", name)
}

func dictGetMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 1, 2); e != nil {
		return nil, e
	}
	v, found, e := vm.dictLookup(b.recv.(*DictVal), args[0])
	if e != nil {
		return nil, e
	}
	if found {
		return v, nil
	}
	if len(args) == 2 {
		return args[1], nil
	}
	return None, nil
}

func dictSetDefaultMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 1, 2); e != nil {
		return nil, e
	}
	d := b.recv.(*DictVal)
	v, found, e := vm.dictLookup(d, args[0])
	if e != nil {
		return nil, e
	}
	if found {
		return v, nil
	}
	var def Value = None
	if len(args) == 2 {
		def = args[1]
	}
	if e := vm.dictSet(d, args[0], def); e != nil {
		return nil, e
	}
	return def, nil
}

func dictKeysMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	return &ListVal{Items: b.recv.(*DictVal).dictKeys()}, nil
}

func dictValuesMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	return &ListVal{Items: b.recv.(*DictVal).dictValues()}, nil
}

func dictItemsMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	return &ListVal{Items: b.recv.(*DictVal).dictItems()}, nil
}

func dictHasKeyMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 1, 1); e != nil {
		return nil, e
	}
	_, found, e := vm.dictLookup(b.recv.(*DictVal), args[0])
	if e != nil {
		return nil, e
	}
	return goBool(found), nil
}

func dictUpdateMethod(vm *VM, b *MethodVal, args []Value) (Value, *Exc) {
	if e := needArgs(b.def.name, args, 1, 1); e != nil {
		return nil, e
	}
	other, ok := args[0].(*DictVal)
	if !ok {
		return nil, excf("TypeError", "update() argument must be a dict")
	}
	d := b.recv.(*DictVal)
	for _, e := range other.order {
		if e.deleted {
			continue
		}
		if exc := vm.dictSet(d, e.key, e.val); exc != nil {
			return nil, exc
		}
	}
	return None, nil
}
