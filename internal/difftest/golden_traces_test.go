package difftest_test

import "repro/internal/difftest"

// goldenTrace is one checker's canonical scenario pair: a conforming
// trace and a violating trace, both chosen to exercise the property's
// intended semantics (not edge cases — those live in the frontier
// corpus). The golden tests pin their verdicts and telemetry blobs; the
// scratch-aliasing tests replay the same pairs through deliberately
// dirtied VM contexts.
type goldenTrace struct {
	key     string
	conform []difftest.HopSpec
	violate []difftest.HopSpec
}

// h builds a header map from alternating name/value pairs, keeping the
// trace table compact.
func h(pairs ...any) map[string]uint64 {
	m := make(map[string]uint64, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		var v uint64
		switch x := pairs[i+1].(type) {
		case int:
			v = uint64(x)
		case uint64:
			v = x
		}
		m[pairs[i].(string)] = v
	}
	return m
}

var goldenTraces = []goldenTrace{
	{
		// Packet enters at a tenant-10 port; exiting at the other
		// tenant-10 port conforms, exiting at the tenant-20 port leaks.
		key: "multi-tenancy",
		conform: []difftest.HopSpec{
			{SW: 1, Headers: h("in_port", 1, "eg_port", 1)},
			{SW: 2, Headers: h("in_port", 3, "eg_port", 2)},
		},
		violate: []difftest.HopSpec{
			{SW: 1, Headers: h("in_port", 1, "eg_port", 1)},
			{SW: 2, Headers: h("in_port", 3, "eg_port", 3)},
		},
	},
	{
		// Balanced traffic keeps |left-right| under the threshold; two
		// max-size packets down the left uplink trip it.
		key: "load-balance",
		conform: []difftest.HopSpec{
			{SW: 1, Headers: h("eg_port", 1), PktLen: 100},
			{SW: 1, Headers: h("eg_port", 2), PktLen: 100},
		},
		violate: []difftest.HopSpec{
			{SW: 1, Headers: h("eg_port", 1), PktLen: 1500},
			{SW: 1, Headers: h("eg_port", 1), PktLen: 1500},
		},
	},
	{
		// The allowed flow (100<->200) passes both direction checks; an
		// uninitiated flow is rejected and its reverse tuple reported.
		key: "stateful-firewall",
		conform: []difftest.HopSpec{
			{SW: 1, Headers: h("ipv4_src", 100, "ipv4_dst", 200)},
			{SW: 1, Headers: h("ipv4_src", 100, "ipv4_dst", 200)},
		},
		violate: []difftest.HopSpec{
			{SW: 1, Headers: h("ipv4_src", 150, "ipv4_dst", 250)},
			{SW: 1, Headers: h("ipv4_src", 150, "ipv4_dst", 250)},
		},
	},
	{
		// Uplink flow matching the deny rule: conforming when the
		// fabric drops it, violating when it slips through.
		key: "app-filtering",
		conform: []difftest.HopSpec{
			{SW: 1, Headers: h(
				"inner_ipv4_is_valid", 1, "inner_ipv4_src", 10, "inner_ipv4_proto", 6,
				"inner_ipv4_dst", 20, "inner_tcp_is_valid", 1, "inner_tcp_dport", 80)},
			{SW: 1, Headers: h("to_be_dropped", 1)},
		},
		violate: []difftest.HopSpec{
			{SW: 1, Headers: h(
				"inner_ipv4_is_valid", 1, "inner_ipv4_src", 10, "inner_ipv4_proto", 6,
				"inner_ipv4_dst", 20, "inner_tcp_is_valid", 1, "inner_tcp_dport", 80)},
			{SW: 1, Headers: h("to_be_dropped", 0)},
		},
	},
	{
		// Staying in VLAN 5 conforms; hopping to VLAN 7 mid-path (a
		// member VLAN, but not the packet's own) is isolation breakage.
		key: "vlan-isolation",
		conform: []difftest.HopSpec{
			{SW: 1, Headers: h("vlan_id", 5)},
			{SW: 1, Headers: h("vlan_id", 5)},
		},
		violate: []difftest.HopSpec{
			{SW: 1, Headers: h("vlan_id", 5)},
			{SW: 1, Headers: h("vlan_id", 7)},
		},
	},
	{
		// Ports 1 and 2 are allow-listed; egressing at 9 is flagged
		// with the offending switch and port.
		key: "egress-validity",
		conform: []difftest.HopSpec{
			{SW: 1, Headers: h("eg_port", 1)},
			{SW: 1, Headers: h("eg_port", 2)},
		},
		violate: []difftest.HopSpec{
			{SW: 1, Headers: h("eg_port", 1)},
			{SW: 1, Headers: h("eg_port", 9)},
		},
	},
	{
		// Leaf-spine-leaf conforms; terminating on the spine does not.
		key:     "routing-validity",
		conform: []difftest.HopSpec{{SW: 1}, {SW: 2}, {SW: 3}},
		violate: []difftest.HopSpec{{SW: 1}, {SW: 2}},
	},
	{
		// A simple path conforms; revisiting switch 1 is a loop.
		key:     "loop-freedom",
		conform: []difftest.HopSpec{{SW: 1}, {SW: 2}, {SW: 3}},
		violate: []difftest.HopSpec{{SW: 1}, {SW: 2}, {SW: 1}},
	},
	{
		// Passing through the waypoint (switch 2) conforms; bypassing
		// it is reported.
		key:     "waypointing",
		conform: []difftest.HopSpec{{SW: 1}, {SW: 2}},
		violate: []difftest.HopSpec{{SW: 1}, {SW: 1}},
	},
	{
		// src(1) -> waypoint(2) -> dst(3) completes the chain; skipping
		// the waypoint leaves it unfinished at the destination.
		key:     "service-chain",
		conform: []difftest.HopSpec{{SW: 1}, {SW: 2}, {SW: 3}},
		violate: []difftest.HopSpec{{SW: 1}, {SW: 3}},
	},
	{
		// The source-route stack names each switch correctly; a stale
		// top-of-stack entry at switch 2 marks the divergence point.
		key: "source-routing",
		conform: []difftest.HopSpec{
			{SW: 1, Headers: h("sr_valid", 1, "sr_next", 1)},
			{SW: 2, Headers: h("sr_valid", 1, "sr_next", 2)},
		},
		violate: []difftest.HopSpec{
			{SW: 1, Headers: h("sr_valid", 1, "sr_next", 1)},
			{SW: 2, Headers: h("sr_valid", 1, "sr_next", 7)},
		},
	},
	{
		// Up-and-over through the spine once is valley-free; hitting
		// the spine twice means the path went down and back up.
		key:     "valley-free",
		conform: []difftest.HopSpec{{SW: 1}, {SW: 2}},
		violate: []difftest.HopSpec{{SW: 2}, {SW: 2}},
	},
}
