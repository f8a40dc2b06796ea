package pipeline

import (
	"fmt"

	"repro/internal/dataplane"
)

// TableSpec declares a table in a compiled program; each switch that
// runs the program instantiates its own Table from the spec.
type TableSpec struct {
	Name    string
	Keys    []KeySpec
	Outputs []FieldRef
	// OutputWidths gives the bit width of each output field.
	OutputWidths []int
	Default      []Value
}

// RegisterSpec declares a register array (an Indus sensor variable).
type RegisterSpec struct {
	Name  string
	Width int
	Size  int
}

// TeleField describes one packet-carried telemetry field, in wire order.
// Arrays serialize as an 8-bit valid count followed by Cap slots.
type TeleField struct {
	Name    string
	Width   int
	IsArray bool
	Cap     int
}

// WireBits returns the serialized size of the field in bits.
func (f TeleField) WireBits() int {
	if f.IsArray {
		return 8 + f.Cap*f.Width
	}
	return f.Width
}

// Program is a compiled Indus checker in pipeline IR: three op blocks
// (init, telemetry, checker), plus the resources they reference.
type Program struct {
	Name      string
	Tables    []TableSpec
	Registers []RegisterSpec
	Tele      []TeleField

	// AlignedTele selects the byte-aligned telemetry encoding: every
	// field starts on a byte boundary (cheaper to parse on devices
	// without shift-heavy deparsers, larger on the wire). The default
	// is the packed encoding the compiled deparser emits.
	AlignedTele bool

	Init      []Op
	Telemetry []Op
	Checker   []Op

	// HeaderBindings maps Indus header variable names to the annotation
	// paths the forwarding substrate binds (e.g. "hdr.ipv4.src_addr").
	HeaderBindings map[string]string
}

// Well-known PHV fields of compiled programs.
const (
	FieldReject  FieldRef = "hydra_metadata.reject0" // Figure 6's reject flag
	FieldLastHop FieldRef = "hydra_metadata.last_hop"
	FieldFirst   FieldRef = "hydra_metadata.first_hop"
	FieldPktLen  FieldRef = "standard_metadata.packet_length"
	FieldSwitch  FieldRef = "hydra_metadata.switch_id"
	FieldHops    FieldRef = "hydra_header.hop_count"
)

// TeleWireBits returns the total telemetry payload size in bits
// (excluding the fixed Hydra header framing).
func (p *Program) TeleWireBits() int {
	n := 8 // hop_count rides with every program
	for _, f := range p.Tele {
		if p.AlignedTele {
			n += f.WireBitsAligned()
		} else {
			n += f.WireBits()
		}
	}
	return n
}

// WireBitsAligned is the field's size under the byte-aligned encoding.
func (f TeleField) WireBitsAligned() int {
	elem := (f.Width + 7) / 8 * 8
	if f.IsArray {
		return 8 + f.Cap*elem
	}
	return elem
}

// State is the per-switch instantiation of a program's tables and
// registers. The control plane holds the same *Table pointers and
// updates them concurrently with forwarding. The maps are filled once, by
// NewState or by hand, and a wipe resets what they hold (Reset); a bytecode
// row binding resolves its sites by name when the row is made.
type State struct {
	Tables    map[string]*Table
	Registers map[string]*Register
}

// NewState instantiates the program's resources for one switch.
func (p *Program) NewState() *State {
	st := &State{
		Tables:    make(map[string]*Table, len(p.Tables)),
		Registers: make(map[string]*Register, len(p.Registers)),
	}
	for _, ts := range p.Tables {
		st.Tables[ts.Name] = NewTable(ts.Name, ts.Keys, ts.Outputs, ts.Default)
	}
	for _, rs := range p.Registers {
		st.Registers[rs.Name] = NewRegister(rs.Name, rs.Width, rs.Size)
	}
	return st
}

// Reset wipes s in place, as a switch restart does: every table loses its
// entries (Table.Clear, which moves ScalarEpoch for a keyless one) and
// every register cell reads zero; the *Table and *Register pointers stay.
func (s *State) Reset() {
	for _, t := range s.Tables {
		t.Clear()
	}
	for _, r := range s.Registers {
		for i := range r.Size {
			r.Write(i, 0)
		}
	}
}

// Warm eagerly rebuilds every exact table's lock-free read snapshot
// (see Table.WarmSnapshot), so a batch of control-plane installs is
// paid for on the control path instead of by the first packet.
func (s *State) Warm() {
	for _, t := range s.Tables {
		t.WarmSnapshot()
	}
}

// ---------------------------------------------------------------------------
// Telemetry wire codec

// EncodeTele packs the program's telemetry fields from the PHV into a
// Hydra blob (packed MSB-first, the compiled deparser's layout).
func (p *Program) EncodeTele(phv PHV) []byte {
	w := dataplane.NewBitWriter()
	w.Grow(p.TeleWireBits())
	w.WriteBits(phv.Get(FieldHops).V, 8)
	for _, f := range p.Tele {
		if f.IsArray {
			w.WriteBits(phv.Get(ArrayCount(f.Name)).V, 8)
			for i := 0; i < f.Cap; i++ {
				w.WriteBits(phv.Get(ArraySlot(f.Name, i)).V, f.Width)
				if p.AlignedTele {
					w.Align()
				}
			}
			continue
		}
		w.WriteBits(phv.Get(FieldRef(f.Name)).V, f.Width)
		if p.AlignedTele {
			w.Align()
		}
	}
	return w.Bytes()
}

// DecodeTele unpacks a Hydra blob into the PHV. An empty blob (first
// hop, before injection) leaves the PHV zero-filled.
func (p *Program) DecodeTele(blob []byte, phv PHV) error {
	if len(blob) == 0 {
		phv.Set(FieldHops, B(8, 0))
		for _, f := range p.Tele {
			if f.IsArray {
				phv.Set(ArrayCount(f.Name), B(8, 0))
				for i := 0; i < f.Cap; i++ {
					phv.Set(ArraySlot(f.Name, i), B(f.Width, 0))
				}
				continue
			}
			phv.Set(FieldRef(f.Name), B(f.Width, 0))
		}
		return nil
	}
	r := dataplane.NewBitReader(blob)
	hops, err := r.ReadBits(8)
	if err != nil {
		return fmt.Errorf("pipeline: telemetry blob: %w", err)
	}
	phv.Set(FieldHops, B(8, hops))
	for _, f := range p.Tele {
		if f.IsArray {
			cnt, err := r.ReadBits(8)
			if err != nil {
				return fmt.Errorf("pipeline: telemetry field %s: %w", f.Name, err)
			}
			phv.Set(ArrayCount(f.Name), B(8, cnt))
			for i := 0; i < f.Cap; i++ {
				v, err := r.ReadBits(f.Width)
				if err != nil {
					return fmt.Errorf("pipeline: telemetry field %s[%d]: %w", f.Name, i, err)
				}
				phv.Set(ArraySlot(f.Name, i), B(f.Width, v))
				if p.AlignedTele {
					r.Align()
				}
			}
			continue
		}
		v, err := r.ReadBits(f.Width)
		if err != nil {
			return fmt.Errorf("pipeline: telemetry field %s: %w", f.Name, err)
		}
		phv.Set(FieldRef(f.Name), B(f.Width, v))
		if p.AlignedTele {
			r.Align()
		}
	}
	return nil
}
