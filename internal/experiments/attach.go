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
	scalar := func(key string, sw int, name string, w int, v uint64) error {
		return install(key, sw, func(st *pipeline.State) error {
			return st.Tables[name].Insert(pipeline.Entry{
				Action: []pipeline.Value{pipeline.B(w, v)},
			})
		})
	}
	dict := func(key string, sw int, name string, k []uint64, w int, v uint64) error {
		return install(key, sw, func(st *pipeline.State) error {
			keys := make([]pipeline.KeyMatch, len(k))
			for i, kv := range k {
				keys[i] = pipeline.ExactKey(kv)
			}
			return st.Tables[name].Insert(pipeline.Entry{
				Keys:   keys,
				Action: []pipeline.Value{pipeline.B(w, v)},
			})
		})
	}
	set := func(key string, sw int, name string, k uint64) error {
		return install(key, sw, func(st *pipeline.State) error {
			return st.Tables[name].Insert(pipeline.Entry{
				Keys: []pipeline.KeyMatch{pipeline.ExactKey(k)},
			})
		})
	}

	var leafIDs []uint32
	for _, sw := range sws {
		if sw.IsLeaf {
			leafIDs = append(leafIDs, sw.ID)
		}
	}
	if len(leafIDs) == 0 {
		return fmt.Errorf("experiments: benign config needs at least one leaf switch")
	}

	for i, sw := range sws {
		var err error
		for port := uint64(0); port <= 12 && err == nil; port++ {
			if e := dict("multi-tenancy", i, "tenants", []uint64{port}, 8, 1); e != nil {
				err = e
			}
			if e := set("egress-validity", i, "allowed_eg_ports", port); e != nil {
				err = e
			}
		}
		if err == nil {
			err = scalar("load-balance", i, "left_port", 8, 1)
		}
		if err == nil {
			err = scalar("load-balance", i, "right_port", 8, 2)
		}
		if err == nil {
			err = scalar("load-balance", i, "thresh", 32, 1<<31)
		}
		if sw.IsLeaf {
			// Uplink ports are a leaf concept; a spine concentrates each
			// destination's traffic on one port by design.
			if err == nil {
				err = dict("load-balance", i, "is_uplink", []uint64{1}, 1, 1)
			}
			if err == nil {
				err = dict("load-balance", i, "is_uplink", []uint64{2}, 1, 1)
			}
		}
		if err == nil {
			// Untagged traffic reads VLAN 0; make it a member everywhere.
			err = dict("vlan-isolation", i, "vlan_members", []uint64{0}, 1, 1)
		}
		if err == nil {
			leaf := uint64(0)
			if sw.IsLeaf {
				leaf = 1
			}
			err = scalar("routing-validity", i, "is_leaf", 1, leaf)
		}
		if err == nil {
			err = scalar("waypointing", i, "waypoint_id", 32, uint64(leafIDs[0]))
		}
		if err == nil {
			err = scalar("service-chain", i, "src_switch", 32, uint64(leafIDs[0]))
		}
		if err == nil && len(leafIDs) > 1 {
			err = scalar("service-chain", i, "dst_switch", 32, uint64(leafIDs[1]))
		}
		if err == nil {
			err = scalar("service-chain", i, "chain_len", 8, 0)
		}
		if err == nil {
			spine := uint64(0)
			if !sw.IsLeaf {
				spine = 1
			}
			err = scalar("valley-free", i, "is_spine_switch", 1, spine)
		}
		if err != nil {
			return fmt.Errorf("experiments: configuring switch %d: %w", sw.ID, err)
		}
	}
	return nil
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
