package netsim

import (
	"fmt"

	"repro/internal/dataplane"
)

// LeafSpine is a built leaf-spine fabric: the topology of Figure 8 (2
// leaves × 2 spines, used for the source-routing case study) and of the
// Aether edge deployment's SDN fabric (Figure 10).
//
// Port conventions: on a leaf, ports 1..S connect to spines 1..S and
// ports S+1..S+H connect hosts; on a spine, port i connects leaf i.
type LeafSpine struct {
	Sim    *Simulator
	Leaves []*Switch
	Spines []*Switch
	// Hosts[l][h] is host h on leaf l. A link is read from the switch
	// by the port conventions above.
	Hosts [][]*Host

	nSpine int
}

// LeafSpineConfig sizes the fabric.
type LeafSpineConfig struct {
	Leaves       int
	Spines       int
	HostsPerLeaf int
	// LinkBps is the line rate of every link (default fabricLinkBps).
	LinkBps int64
	// WithRouting installs L3 ECMP forwarding on all switches; leave
	// false when a custom forwarding program will be attached (e.g.
	// source routing).
	WithRouting bool
}

// HostIP returns the address of host h (0-based) on leaf l (0-based):
// 10.0.<l+1>.<h+1>, matching Figure 8's addressing.
func HostIP(l, h int) dataplane.IP4 {
	return dataplane.MustIP4(fmt.Sprintf("10.0.%d.%d", l+1, h+1))
}

// LeafPrefix returns leaf l's /24.
func LeafPrefix(l int) dataplane.IP4 {
	return dataplane.MustIP4(fmt.Sprintf("10.0.%d.0", l+1))
}

// The links both fabric builders wire: line rate (a leaf-spine may set
// its own), propagation delay and transmit-queue bound.
const (
	fabricLinkBps    = 10_000_000_000
	fabricPropDelay  = Microsecond
	fabricQueueBytes = 512 << 10
)

// fabricLink connects a fabric link at the given line rate.
func fabricLink(sim *Simulator, a Node, aPort int, b Node, bPort int, bps int64) {
	Connect(sim, a, aPort, b, bPort, bps, fabricPropDelay).QueueBytes = fabricQueueBytes
}

// BuildLeafSpine constructs the fabric.
func BuildLeafSpine(sim *Simulator, cfg LeafSpineConfig) *LeafSpine {
	if cfg.LinkBps == 0 {
		cfg.LinkBps = fabricLinkBps
	}

	ls := &LeafSpine{Sim: sim, nSpine: cfg.Spines}

	for s := 0; s < cfg.Spines; s++ {
		sw := NewSwitch(sim, uint32(100+s+1), fmt.Sprintf("spine%d", s+1))
		ls.Spines = append(ls.Spines, sw)
	}
	for l := 0; l < cfg.Leaves; l++ {
		sw := NewSwitch(sim, uint32(l+1), fmt.Sprintf("leaf%d", l+1))
		ls.Leaves = append(ls.Leaves, sw)
	}

	// Leaf-spine mesh.
	for l, leaf := range ls.Leaves {
		for s, spine := range ls.Spines {
			fabricLink(sim, leaf, s+1, spine, l+1, cfg.LinkBps)
		}
	}

	// Hosts.
	ls.Hosts = make([][]*Host, cfg.Leaves)
	for l, leaf := range ls.Leaves {
		for h := 0; h < cfg.HostsPerLeaf; h++ {
			port := cfg.Spines + 1 + h
			mac := dataplane.MACFromUint64(uint64(l+1)<<8 | uint64(h+1))
			host := NewHost(sim, fmt.Sprintf("h%d_%d", l+1, h+1), mac, HostIP(l, h))
			host.GatewayMAC = dataplane.MACFromUint64(uint64(0xF0 + l))
			fabricLink(sim, leaf, port, host, 0, cfg.LinkBps)
			ls.Hosts[l] = append(ls.Hosts[l], host)
		}
	}

	if cfg.WithRouting {
		ls.InstallRouting()
	}
	return ls
}

// InstallRouting programs plain L3 ECMP forwarding: leaves route local
// hosts to their ports and remote leaf prefixes across all spines;
// spines route each leaf prefix to that leaf's port.
func (ls *LeafSpine) InstallRouting() {
	spinePorts := make([]int, len(ls.Spines))
	for s := range ls.Spines {
		spinePorts[s] = s + 1
	}
	for l, leaf := range ls.Leaves {
		prog := &L3Program{}
		for h := range ls.Hosts[l] {
			prog.AddRoute(HostIP(l, h), 32, ls.nSpine+1+h)
		}
		for other := range ls.Leaves {
			if other != l {
				prog.AddRoute(LeafPrefix(other), 24, spinePorts...)
			}
		}
		leaf.Forwarding = prog
	}
	for _, spine := range ls.Spines {
		prog := &L3Program{}
		for l := range ls.Leaves {
			prog.AddRoute(LeafPrefix(l), 24, l+1)
		}
		spine.Forwarding = prog
	}
}

// AllSwitches returns leaves then spines.
func (ls *LeafSpine) AllSwitches() []*Switch {
	out := make([]*Switch, 0, len(ls.Leaves)+len(ls.Spines))
	out = append(out, ls.Leaves...)
	out = append(out, ls.Spines...)
	return out
}

// Host returns host h on leaf l (0-based).
func (ls *LeafSpine) Host(l, h int) *Host { return ls.Hosts[l][h] }
