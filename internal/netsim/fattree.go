package netsim

import (
	"fmt"

	"repro/internal/dataplane"
)

// FatTree is a built k-ary fat-tree (Al-Fahad style): (k/2)² core
// switches, k pods of k/2 aggregation and k/2 edge switches, and k/2
// hosts per edge switch — the standard large-fabric stress topology for
// the parallel simulator (a k=8 tree is 80 switches and 128 hosts).
//
// Port conventions: on an edge switch, ports 1..k/2 connect hosts
// (edge ports) and ports k/2+1..k connect the pod's aggregation
// switches; on an aggregation switch, ports 1..k/2 connect the pod's
// edge switches and ports k/2+1..k connect its core group; core switch
// port p+1 connects pod p.
type FatTree struct {
	Sim *Simulator
	K   int

	// Core[g][j] is core switch j of group g (group g attaches to every
	// pod's g'th aggregation switch). Agg[p][a] and Edge[p][e] are the
	// pod switches; Hosts[p][e][h] is host h on edge e of pod p. A link
	// is read from the switch by the port conventions above.
	Core  [][]*Switch
	Agg   [][]*Switch
	Edge  [][]*Switch
	Hosts [][][]*Host
}

// FatTreeConfig sizes the fabric.
type FatTreeConfig struct {
	// K is the arity; must be even (default 4).
	K int
	// WithRouting installs two-level LPM + ECMP forwarding on every
	// switch.
	WithRouting bool
}

// FatTreeHostIP returns the address of host h (0-based) on edge switch
// e of pod p: 10.<p>.<e>.<h+2>, the classic fat-tree addressing.
func FatTreeHostIP(p, e, h int) dataplane.IP4 {
	return dataplane.MustIP4(fmt.Sprintf("10.%d.%d.%d", p, e, h+2))
}

// BuildFatTree constructs the fabric: cores, then per-pod aggs and
// edges, then hosts.
func BuildFatTree(sim *Simulator, cfg FatTreeConfig) *FatTree {
	if cfg.K == 0 {
		cfg.K = 4
	}
	if cfg.K%2 != 0 || cfg.K < 2 {
		panic(fmt.Sprintf("netsim: fat-tree arity %d is not even", cfg.K))
	}
	k := cfg.K
	half := k / 2

	ft := &FatTree{Sim: sim, K: k}

	for g := 0; g < half; g++ {
		var group []*Switch
		for j := 0; j < half; j++ {
			sw := NewSwitch(sim, uint32(0x4000+g*half+j), fmt.Sprintf("core%d_%d", g, j))
			group = append(group, sw)
		}
		ft.Core = append(ft.Core, group)
	}
	for p := 0; p < k; p++ {
		var aggs, edges []*Switch
		for a := 0; a < half; a++ {
			aggs = append(aggs, NewSwitch(sim, uint32(0x2000+p*half+a), fmt.Sprintf("agg%d_%d", p, a)))
		}
		for e := 0; e < half; e++ {
			edges = append(edges, NewSwitch(sim, uint32(0x1000+p*half+e), fmt.Sprintf("edge%d_%d", p, e)))
		}
		ft.Agg = append(ft.Agg, aggs)
		ft.Edge = append(ft.Edge, edges)
	}

	// Agg <-> core: agg a of every pod connects to core group a.
	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			for j := 0; j < half; j++ {
				fabricLink(sim, ft.Agg[p][a], half+1+j, ft.Core[a][j], p+1, fabricLinkBps)
			}
		}
	}

	// Edge <-> agg mesh inside each pod.
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				fabricLink(sim, ft.Edge[p][e], half+1+a, ft.Agg[p][a], e+1, fabricLinkBps)
			}
		}
	}

	// Hosts.
	ft.Hosts = make([][][]*Host, k)
	for p := 0; p < k; p++ {
		ft.Hosts[p] = make([][]*Host, half)
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				mac := dataplane.MACFromUint64(uint64(p+1)<<16 | uint64(e+1)<<8 | uint64(h+1))
				host := NewHost(sim, fmt.Sprintf("h%d_%d_%d", p, e, h), mac, FatTreeHostIP(p, e, h))
				host.GatewayMAC = dataplane.MACFromUint64(0xE0_0000 | uint64(p)<<8 | uint64(e))
				fabricLink(sim, ft.Edge[p][e], h+1, host, 0, fabricLinkBps)
				ft.Hosts[p][e] = append(ft.Hosts[p][e], host)
			}
		}
	}

	if cfg.WithRouting {
		ft.InstallRouting()
	}
	return ft
}

// InstallRouting programs the standard two-level fat-tree forwarding:
// edges route local /32s down and default-ECMP up to the pod aggs;
// aggs route the pod's edge /24s down and default-ECMP up to their
// core group; cores route each pod /16 to that pod's port.
//
// Each switch also installs a null (discard) route for its own
// aggregate — the edge its /24, the agg its pod /16 — the standard
// discard-aggregate practice: without it, traffic for nonexistent
// addresses inside an aggregate bounces between the aggregate's
// down-route and the default up-route until TTL death, a genuine
// forwarding loop the static verifier (internal/atoms) would flag.
func (ft *FatTree) InstallRouting() {
	k := ft.K
	half := k / 2
	upPorts := make([]int, half)
	for i := range upPorts {
		upPorts[i] = half + 1 + i
	}
	def := dataplane.IP4(0)
	for p := 0; p < k; p++ {
		for e, edge := range ft.Edge[p] {
			prog := &L3Program{}
			for h := 0; h < half; h++ {
				prog.AddRoute(FatTreeHostIP(p, e, h), 32, h+1)
			}
			prog.AddRoute(dataplane.MustIP4(fmt.Sprintf("10.%d.%d.0", p, e)), 24) // discard own aggregate
			prog.AddRoute(def, 0, upPorts...)
			edge.Forwarding = prog
		}
		for _, agg := range ft.Agg[p] {
			prog := &L3Program{}
			for e := 0; e < half; e++ {
				prog.AddRoute(dataplane.MustIP4(fmt.Sprintf("10.%d.%d.0", p, e)), 24, e+1)
			}
			prog.AddRoute(dataplane.MustIP4(fmt.Sprintf("10.%d.0.0", p)), 16) // discard own aggregate
			prog.AddRoute(def, 0, upPorts...)
			agg.Forwarding = prog
		}
	}
	for _, group := range ft.Core {
		for _, core := range group {
			prog := &L3Program{}
			for p := 0; p < k; p++ {
				prog.AddRoute(dataplane.MustIP4(fmt.Sprintf("10.%d.0.0", p)), 16, p+1)
			}
			core.Forwarding = prog
		}
	}
}

// AllSwitches returns every switch in registration order: cores, then
// per-pod aggregations and edges.
func (ft *FatTree) AllSwitches() []*Switch {
	var out []*Switch
	for _, g := range ft.Core {
		out = append(out, g...)
	}
	for p := range ft.Agg {
		out = append(out, ft.Agg[p]...)
		out = append(out, ft.Edge[p]...)
	}
	return out
}
