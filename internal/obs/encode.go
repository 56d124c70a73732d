package obs

import (
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

	dst = appendStr(dst, `,"site":`, ev.Site)
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
