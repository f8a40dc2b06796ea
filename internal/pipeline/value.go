// Package pipeline models an executable match-action pipeline in the
// style of a P4 target: PHV fields, match-action tables (exact, LPM,
// ternary, range, with priorities), registers, header stacks, and a
// small structured-op interpreter.
//
// It serves two roles in the reproduction:
//
//   - it is the execution target of the Indus compiler — the compiled
//     checker runs here exactly as the emitted P4 would run on a switch;
//   - it is the substrate for forwarding programs themselves (the Aether
//     UPF's Applications/Terminations tables of Figure 11 are pipeline
//     tables), so checking and forwarding share one machine model while
//     remaining independent programs, as §2 argues they must.
package pipeline

import (
	"fmt"
	"sync"
)

// Value is a bit<Width> PHV value; booleans are width-1 values.
type Value struct {
	W int
	V uint64
}

// B returns a width-w value, masking v.
func B(w int, v uint64) Value { return Value{W: w, V: Mask(w, v)} }

// BoolV returns a 1-bit value from a Go bool.
func BoolV(b bool) Value {
	if b {
		return Value{W: 1, V: 1}
	}
	return Value{W: 1}
}

// Mask truncates v to w bits.
func Mask(w int, v uint64) uint64 {
	if w >= 64 {
		return v
	}
	return v & (1<<uint(w) - 1)
}

// Bool interprets the value as a boolean (nonzero = true).
func (v Value) Bool() bool { return v.V != 0 }

// Signed interprets the value as a two's-complement W-bit integer.
func (v Value) Signed() int64 {
	if v.W < 64 && v.V&(1<<uint(v.W-1)) != 0 {
		return int64(v.V) - 1<<uint(v.W)
	}
	return int64(v.V)
}

func (v Value) String() string { return fmt.Sprintf("%d:bit<%d>", v.V, v.W) }

// FieldRef names a PHV field, e.g. "hydra_header.tenant" or
// "hdr.ipv4.src_addr". Array slots use the "<name>.<index>" convention
// and the valid-count field is "<name>.$count".
type FieldRef string

// slotCache memoizes slot FieldRefs: DecodeTele/EncodeTele and the
// header-stack ops resolve them on every packet, so the fmt-based
// construction must not run on the hot path.
var slotCache sync.Map // string -> []FieldRef

// ArraySlot returns the FieldRef of slot i of array base.
func ArraySlot(base string, i int) FieldRef {
	if v, ok := slotCache.Load(base); ok {
		if refs := v.([]FieldRef); i < len(refs) {
			return refs[i]
		}
	}
	n := i + 8
	refs := make([]FieldRef, n)
	for j := 0; j < n; j++ {
		refs[j] = FieldRef(fmt.Sprintf("%s.%d", base, j))
	}
	slotCache.Store(base, refs)
	return refs[i]
}

// ArrayCount returns the FieldRef of the valid-element counter of base.
func ArrayCount(base string) FieldRef { return FieldRef(base + ".$count") }

// PHV is the packet header vector: every field the program references,
// including telemetry header fields, metadata, and bound forwarding
// headers.
type PHV map[FieldRef]Value

// Get returns the field value; an unset field is the zero Value, which
// a Field read gives its declared width, matching P4's zero-initialized
// metadata.
func (p PHV) Get(f FieldRef) Value { return p[f] }

// Set writes the field.
func (p PHV) Set(f FieldRef, v Value) { p[f] = v }
