package minilua

import (
	"chef/internal/interp"
	"chef/internal/lowlevel"
)

// Native string routines: the ones that the §4.2 switches change are
// written once for both guests in internal/interp; these wrap them with
// MiniLua's types, 1-based positions, errors and LLPCs.

// strEq returns string equality as a width-1 value.
func (vm *VM) strEq(a, b StrVal) lowlevel.SVal {
	return interp.StrEq(vm.m, vm.cfg, a.B, b.B, llpcStrEqFast)
}

// strOrder implements <, <=, >, >= lexicographically.
func (vm *VM) strOrder(kind int, a, b StrVal) lowlevel.SVal {
	sign := interp.StrCompare(vm.m, a.B, b.B, llpcStrLtByte)
	switch kind {
	case luaLt:
		return lowlevel.ConcreteBool(sign < 0)
	case luaLe:
		return lowlevel.ConcreteBool(sign <= 0)
	case luaGt:
		return lowlevel.ConcreteBool(sign > 0)
	default:
		return lowlevel.ConcreteBool(sign >= 0)
	}
}

// strFindPlain implements string.find(s, pat, init, true): plain substring
// search from the 1-based init, returning a 1-based position or -1.
func (vm *VM) strFindPlain(hay, needle StrVal, start int) int {
	pos := interp.StrFind(vm.m, vm.cfg, hay.B, needle.B, start-1, llpcStrEqFast, llpcStrFindPos)
	if pos < 0 {
		return -1
	}
	return pos + 1
}

// strSub implements string.sub with Lua's index conventions.
func (vm *VM) strSub(s StrVal, i, j int) StrVal {
	n := len(s.B)
	if i < 0 {
		i = n + i + 1
	}
	if j < 0 {
		j = n + j + 1
	}
	if i < 1 {
		i = 1
	}
	if j > n {
		j = n
	}
	if i > j {
		return StrVal{}
	}
	return StrVal{B: append([]lowlevel.SVal(nil), s.B[i-1:j]...)}
}

// strRep implements string.rep with the allocation-size treatment of §4.2
// (see interp.AllocCount).
func (vm *VM) strRep(s StrVal, n IntVal) (Value, *LuaError) {
	count := max(interp.AllocCount(vm.m, vm.cfg, n.V, llpcStrAlloc), 0)
	if count > int64(4096/max(1, len(s.B))) {
		return nil, luaErrf("resulting string too large")
	}
	var out []lowlevel.SVal
	for i := int64(0); i < count; i++ {
		vm.m.Step(1)
		out = append(out, s.B...)
	}
	return StrVal{B: out}, nil
}

// strCase implements string.lower and string.upper.
func (vm *VM) strCase(s StrVal, toLower bool) StrVal {
	return StrVal{B: interp.StrCaseMap(vm.m, vm.cfg, s.B, toLower, llpcStrCase)}
}
