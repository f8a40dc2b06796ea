package experiments

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/pipeline"
)

// SwitchInfo describes one switch of a fabric for control-plane
// configuration: its identifier and whether it is a leaf (ToR) switch.
type SwitchInfo struct {
	ID     uint32
	IsLeaf bool
}

// ConfigureBenign installs the benign §6.2 "all checkers" control state
// through the install callback, so the same configuration can target
// netsim switch attachments and engine shard replicas alike:
// install(checker, swIdx, fn) must apply fn to every replica of that
// checker's state on switch sws[swIdx]. The state makes legal traffic
// never reject: tenants and VLANs are uniform, all egress ports are
// allowed, the waypoint is the first leaf (every host pair's path
// crosses it in a 2-leaf fabric), the load-balance threshold is
// effectively infinite, and the stateful firewall is seeded separately
// via FirewallSeed / AllowFlows.
func ConfigureBenign(sws []SwitchInfo, install func(checker string, swIdx int, fn func(*pipeline.State) error) error) error {
	var leafIDs []uint64
	for _, sw := range sws {
		if sw.IsLeaf {
			leafIDs = append(leafIDs, uint64(sw.ID))
		}
	}
	if len(leafIDs) == 0 {
		return fmt.Errorf("experiments: benign config needs at least one leaf switch")
	}
	for i, sw := range sws {
		leaf := uint64(0)
		if sw.IsLeaf {
			leaf = 1
		}
		var ins []controlEntry
		for port := uint64(0); port <= 12; port++ {
			ins = append(ins,
				controlEntry{"multi-tenancy", "tenants", []uint64{port}, 8, 1},
				controlEntry{"egress-validity", "allowed_eg_ports", []uint64{port}, 0, 0})
		}
		ins = append(ins,
			controlEntry{"load-balance", "left_port", nil, 8, 1},
			controlEntry{"load-balance", "right_port", nil, 8, 2},
			controlEntry{"load-balance", "thresh", nil, 32, 1 << 31})
		if sw.IsLeaf {
			// Uplink ports are a leaf concept; a spine concentrates each
			// destination's traffic on one port by design.
			ins = append(ins,
				controlEntry{"load-balance", "is_uplink", []uint64{1}, 1, 1},
				controlEntry{"load-balance", "is_uplink", []uint64{2}, 1, 1})
		}
		ins = append(ins,
			// Untagged traffic reads VLAN 0; make it a member everywhere.
			controlEntry{"vlan-isolation", "vlan_members", []uint64{0}, 1, 1},
			controlEntry{"routing-validity", "is_leaf", nil, 1, leaf},
			controlEntry{"waypointing", "waypoint_id", nil, 32, leafIDs[0]},
			controlEntry{"service-chain", "src_switch", nil, 32, leafIDs[0]})
		if len(leafIDs) > 1 {
			ins = append(ins, controlEntry{"service-chain", "dst_switch", nil, 32, leafIDs[1]})
		}
		ins = append(ins,
			controlEntry{"service-chain", "chain_len", nil, 8, 0},
			controlEntry{"valley-free", "is_spine_switch", nil, 1, 1 - leaf})
		for _, e := range ins {
			if err := install(e.checker, i, e.insert); err != nil {
				return fmt.Errorf("experiments: configuring switch %d: %w", sw.ID, err)
			}
		}
	}
	return nil
}

// controlEntry is one entry of a checker's control table: a scalar (no
// keys), a dictionary entry (keys and a width-w value) or a set member
// (keys, width 0: no action).
type controlEntry struct {
	checker, table string
	keys           []uint64
	w              int
	v              uint64
}

func (e controlEntry) insert(st *pipeline.State) error {
	var entry pipeline.Entry
	for _, k := range e.keys {
		entry.Keys = append(entry.Keys, pipeline.ExactKey(k))
	}
	if e.w > 0 {
		entry.Action = []pipeline.Value{pipeline.B(e.w, e.v)}
	}
	return st.Tables[e.table].Insert(entry)
}

// AttachAllCheckers compiles every corpus checker, attaches all of them
// to every switch of the fabric (the §6.2 "All Checkers" configuration),
// and installs the benign control-plane state of ConfigureBenign; the
// stateful firewall is pre-seeded for the experiment's flows via
// AllowFlows.
func AttachAllCheckers(ls *netsim.LeafSpine) (map[string][]*netsim.HydraAttachment, error) {
	chks, err := CorpusCheckers()
	if err != nil {
		return nil, err
	}
	atts := map[string][]*netsim.HydraAttachment{}
	for _, c := range chks {
		for _, sw := range ls.AllSwitches() {
			atts[c.Name] = append(atts[c.Name], sw.AttachChecker(c.RT, nil))
		}
	}
	err = ConfigureBenign(fabricSwitchInfos(ls), func(checker string, swIdx int, fn func(*pipeline.State) error) error {
		return fn(atts[checker][swIdx].State)
	})
	if err != nil {
		return nil, err
	}
	return atts, nil
}

// FirewallSeed returns an installer that seeds the stateful firewall's
// allowed dictionary (both directions) for the given (src, dst) address
// pairs. The entries are laid out once — keys cut from one slab, one
// shared action — and go into the first empty table the installer is
// handed as one batch. allowed is one control variable replicated to
// every switch, so each later empty table adopts the first copy-on-write
// (pipeline.Table.CopyFrom) while that one still holds exactly the
// batch; any other table takes the batch itself. For one goroutine.
func FirewallSeed(pairs [][2]uint32) func(*pipeline.State) error {
	keys := make([]pipeline.KeyMatch, 0, 4*len(pairs))
	batch := make([]pipeline.Entry, 0, 2*len(pairs))
	allow := []pipeline.Value{pipeline.BoolV(true)}
	for _, p := range pairs {
		for dir := 0; dir < 2; dir++ {
			keys = append(keys, pipeline.ExactKey(uint64(p[dir])), pipeline.ExactKey(uint64(p[1-dir])))
			batch = append(batch, pipeline.Entry{Keys: keys[len(keys)-2 : len(keys) : len(keys)], Action: allow})
		}
	}
	var donor *pipeline.Table
	var version uint64
	return func(st *pipeline.State) error {
		tbl := st.Tables["allowed"]
		empty := tbl.Len() == 0
		if empty && donor != nil && donor.Version() == version {
			return tbl.CopyFrom(donor)
		}
		err := tbl.InsertBatch(batch)
		if err == nil && empty && donor == nil {
			donor, version = tbl, tbl.Version()
		}
		return err
	}
}

// AllowFlows seeds the stateful firewall's allowed dictionary (both
// directions) for the given (src, dst) address pairs on every switch.
func AllowFlows(atts map[string][]*netsim.HydraAttachment, pairs [][2]uint32) error {
	seed := FirewallSeed(pairs)
	for _, att := range atts["stateful-firewall"] {
		if err := seed(att.State); err != nil {
			return err
		}
	}
	return nil
}
