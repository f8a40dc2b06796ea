// Package srcrouting implements the §5.1 case study: a source-routing
// forwarding program (generalizing the P4 tutorial's), the Figure 8
// leaf-spine topology, a path computer for valley-free routes, and the
// deliberately buggy sender whose packets Hydra must drop.
package srcrouting

import (
	"fmt"

	"repro/internal/dataplane"
	"repro/internal/netsim"
)

// Program forwards packets by popping the source-route stack: each entry
// names the egress port at the switch expected to process it. Packets
// without a source route are dropped (the case-study network runs pure
// source routing).
type Program struct{}

// Process implements netsim.ForwardingProgram. The consumed stack entry
// is handed to the checker as PacketMeta.Popped (the egress-side
// telemetry block runs after the pop, so it could not otherwise observe
// which entry this switch acted on).
func (Program) Process(_ *netsim.Switch, pkt *dataplane.Decoded, meta *netsim.PacketMeta) []netsim.Egress {
	if !pkt.HasSourceRoute || len(pkt.SourceRoute) == 0 {
		return nil
	}
	hop := pkt.SourceRoute[0]
	pkt.SourceRoute = pkt.SourceRoute[1:]
	if len(pkt.SourceRoute) == 0 {
		pkt.HasSourceRoute = false
	}
	meta.Popped, meta.HasPopped = hop, true
	return meta.OneEgress(int(hop.Port))
}

// Figure8 is the topology of Figure 8: leaves s1, s2 and spines s3, s4,
// with hosts h1 (10.0.1.1), h2 (10.0.2.2) on s1 and h3 (10.0.3.3), h4
// (10.0.4.4) on s2.
//
// Port map: on each leaf, port 1 → s3, port 2 → s4, ports 3 and 4 → its
// two hosts. On each spine, port 1 → s1, port 2 → s2.
type Figure8 struct {
	Sim *netsim.Simulator

	S1, S2, S3, S4 *netsim.Switch
	H1, H2, H3, H4 *netsim.Host

	// portTo[a][b] is the port on switch a that leads to switch b.
	portTo map[*netsim.Switch]map[*netsim.Switch]int
	// hostPort[h] is the (leaf, port) a host hangs off.
	hostLeaf map[*netsim.Host]*netsim.Switch
	hostPort map[*netsim.Host]int
}

// Build constructs the Figure 8 network with the source-routing program
// on every switch.
func Build(sim *netsim.Simulator) *Figure8 {
	f := &Figure8{
		Sim:      sim,
		portTo:   map[*netsim.Switch]map[*netsim.Switch]int{},
		hostLeaf: map[*netsim.Host]*netsim.Switch{},
		hostPort: map[*netsim.Host]int{},
	}
	mkSwitch := func(id uint32, name string) *netsim.Switch {
		sw := netsim.NewSwitch(sim, id, name)
		sw.Forwarding = Program{}
		f.portTo[sw] = map[*netsim.Switch]int{}
		return sw
	}
	f.S1 = mkSwitch(1, "s1")
	f.S2 = mkSwitch(2, "s2")
	f.S3 = mkSwitch(3, "s3")
	f.S4 = mkSwitch(4, "s4")

	const bps = 10_000_000_000
	wire := func(a *netsim.Switch, ap int, b *netsim.Switch, bp int) {
		netsim.Connect(sim, a, ap, b, bp, bps, netsim.Microsecond)
		f.portTo[a][b] = ap
		f.portTo[b][a] = bp
	}
	wire(f.S1, 1, f.S3, 1)
	wire(f.S1, 2, f.S4, 1)
	wire(f.S2, 1, f.S3, 2)
	wire(f.S2, 2, f.S4, 2)

	mkHost := func(name, ip string, leaf *netsim.Switch, port int, mac uint64) *netsim.Host {
		h := netsim.NewHost(sim, name, dataplane.MACFromUint64(mac), dataplane.MustIP4(ip))
		netsim.Connect(sim, leaf, port, h, 0, bps, netsim.Microsecond)
		f.hostLeaf[h] = leaf
		f.hostPort[h] = port
		return h
	}
	f.H1 = mkHost("h1", "10.0.1.1", f.S1, 3, 0x11)
	f.H2 = mkHost("h2", "10.0.2.2", f.S1, 4, 0x12)
	f.H3 = mkHost("h3", "10.0.3.3", f.S2, 3, 0x21)
	f.H4 = mkHost("h4", "10.0.4.4", f.S2, 4, 0x22)
	return f
}

// Switches returns all four switches.
func (f *Figure8) Switches() []*netsim.Switch {
	return []*netsim.Switch{f.S1, f.S2, f.S3, f.S4}
}

// Hosts returns all four hosts.
func (f *Figure8) Hosts() []*netsim.Host {
	return []*netsim.Host{f.H1, f.H2, f.H3, f.H4}
}

// IsSpine reports whether sw is a spine switch.
func (f *Figure8) IsSpine(sw *netsim.Switch) bool { return sw == f.S3 || sw == f.S4 }

// Leaf returns the leaf a host attaches to.
func (f *Figure8) Leaf(h *netsim.Host) *netsim.Switch { return f.hostLeaf[h] }

// Route builds the source-route stack for a switch path ending at dst's
// leaf: one entry per switch giving the egress port toward the next
// element, with the final entry pointing at the host port. Every entry
// carries the ID of the switch expected to process it, which the Hydra
// path-validation checker verifies.
func (f *Figure8) Route(path []*netsim.Switch, dst *netsim.Host) ([]dataplane.SourceRouteHop, error) {
	if len(path) == 0 {
		return nil, fmt.Errorf("srcrouting: empty path")
	}
	if path[len(path)-1] != f.hostLeaf[dst] {
		return nil, fmt.Errorf("srcrouting: path does not end at %s's leaf", dst.Name)
	}
	hops := make([]dataplane.SourceRouteHop, len(path))
	for i, sw := range path {
		var port int
		if i == len(path)-1 {
			port = f.hostPort[dst]
		} else {
			p, ok := f.portTo[sw][path[i+1]]
			if !ok {
				return nil, fmt.Errorf("srcrouting: no link %s -> %s", sw.Name, path[i+1].Name)
			}
			port = p
		}
		hops[i] = dataplane.SourceRouteHop{Port: uint16(port), SwitchID: sw.ID, BOS: i == len(path)-1}
	}
	return hops, nil
}

// ValleyFreePaths enumerates every valley-free switch path from src to
// dst: the direct leaf for same-leaf pairs, and leaf→spine→leaf for
// cross-leaf pairs (one path per spine).
func (f *Figure8) ValleyFreePaths(src, dst *netsim.Host) [][]*netsim.Switch {
	sl, dl := f.hostLeaf[src], f.hostLeaf[dst]
	if sl == dl {
		return [][]*netsim.Switch{{sl}}
	}
	return [][]*netsim.Switch{
		{sl, f.S3, dl},
		{sl, f.S4, dl},
	}
}

// ValleyPaths enumerates paths that violate valley-freeness (they visit
// two spines, going up after coming down); these are the routes the §5.1
// buggy sender emits.
func (f *Figure8) ValleyPaths(src, dst *netsim.Host) [][]*netsim.Switch {
	sl, dl := f.hostLeaf[src], f.hostLeaf[dst]
	other := func(l *netsim.Switch) *netsim.Switch {
		if l == f.S1 {
			return f.S2
		}
		return f.S1
	}
	return [][]*netsim.Switch{
		{sl, f.S3, other(dl), f.S4, dl},
		{sl, f.S4, other(dl), f.S3, dl},
	}
}

// BuggySender mimics the §5.1 fault injection: given a correct
// valley-free route it appends "extra invalid hops", turning the path
// into a valley. The resulting stack is still well-formed — only the
// path is illegal — so forwarding happily follows it and only runtime
// verification can catch it.
func (f *Figure8) BuggySender(src, dst *netsim.Host) ([]dataplane.SourceRouteHop, error) {
	paths := f.ValleyPaths(src, dst)
	return f.Route(paths[0], dst)
}
