package checkers

// MultiTenancySrc is the bare-metal multi-tenancy program of Figure 1.
// All traffic through a ToR port facing a bare-metal server belongs to a
// single tenant; the packet must exit at a port of the same tenant.
const MultiTenancySrc = `
/* Variable declarations */
control dict<bit<8>,bit<8>> tenants;
tele bit<8> tenant;
header bit<8> in_port @ "standard_metadata.ingress_port";
header bit<8> eg_port @ "standard_metadata.egress_port";

/* Code blocks */
{ /* Executes at first hop */
  tenant = tenants[in_port];
}
{ /* Executes at every hop */ }
{ /* Executes at the last hop */
  if (tenant != tenants[eg_port]) { reject; }
}
`

// LoadBalanceSrc is the data center load-balancing checker as measured
// in Table 1. Per §6.1, the measured program is an optimized variant of
// Figure 2: instead of carrying per-hop load arrays and iterating over
// them in the checker, it maintains a boolean that records whether an
// imbalance was detected on any switch along the path ("which eliminates
// the need to iterate over multiple arrays in the block").
const LoadBalanceSrc = `
sensor bit<32> left_load = 0;
sensor bit<32> right_load = 0;
control bit<8> left_port;
control bit<8> right_port;
control bit<32> thresh;
control dict<bit<8>,bool> is_uplink;
tele bool imbalanced = false;
header bit<8> eg_port @ "standard_metadata.egress_port";

{ }
{
  if (is_uplink[eg_port]) {
    if (eg_port == left_port) {
      left_load += packet_length;
    }
    elsif (eg_port == right_port) {
      right_load += packet_length;
    }
  }
  if (abs(left_load - right_load) > thresh) {
    imbalanced = true;
  }
}
{
  if (imbalanced) {
    report;
  }
}
`

// LoadBalanceFig2Src is the load-balancing program exactly as printed in
// Figure 2 of the paper: telemetry arrays record the cumulative load of
// each uplink at every hop and the checker iterates over both arrays in
// lockstep.
const LoadBalanceFig2Src = `
sensor bit<32> left_load = 0;
sensor bit<32> right_load = 0;
control bit<8> left_port;
control bit<8> right_port;
control bit<32> thresh;
control dict<bit<8>,bool> is_uplink;
tele bit<32>[15] left_loads;
tele bit<32>[15] right_loads;
header bit<8> eg_port @ "standard_metadata.egress_port";

{ }
{
  if (is_uplink[eg_port]) {
    if (eg_port == left_port) {
      left_load += packet_length;
    }
    elsif (eg_port == right_port) {
      right_load += packet_length;
    }
  }
  left_loads.push(left_load);
  right_loads.push(right_load);
}
{
  for (left_load_t, right_load_t in left_loads, right_loads) {
    if (abs(left_load_t - right_load_t) > thresh) {
      report;
    }
  }
}
`

// StatefulFirewallSrc is the stateful firewall of Figure 3: flows may
// only enter the network if a device inside initiated the communication;
// the control plane installs reverse-direction rules in response to
// reports raised in the telemetry block.
const StatefulFirewallSrc = `
control dict<(bit<32>,bit<32>),bool> allowed;
tele bool violated = false;
header bit<32> ipv4_src @ "hdr.ipv4.src_addr";
header bit<32> ipv4_dst @ "hdr.ipv4.dst_addr";

{ /* Checks if packet is allowed to enter */
  if (!allowed[(ipv4_src,ipv4_dst)]) {
    violated = true;
  }
}
{ /* Checks if packet on reverse direction has been seen */
  if (last_hop && !allowed[(ipv4_dst, ipv4_src)]) {
    report((ipv4_dst,ipv4_src));
  }
}
{
  if (violated) { reject; }
}
`

// AppFilteringSrc is the Aether application-filtering checker of
// Figure 9: a client (UE) may only exchange traffic with the
// applications its slice's filtering rules allow. The filtering action
// is resolved at the first hop and carried in telemetry; the checker
// compares it against the forwarding program's drop decision.
const AppFilteringSrc = `
tele bit<32> ue_ipv4_addr;
tele bit<32> app_ipv4_addr;
tele bit<8> app_ip_proto;
tele bit<16> app_l4_port;
tele bit<8> filtering_action = 0; // 1=deny,2=allow

control dict<(bit<32>,bit<8>,bit<32>,bit<16>),bit<8>> filtering_actions;

header bool inner_ipv4_is_valid @ "hdr.inner_ipv4.$valid$";
header bool inner_tcp_is_valid @ "hdr.inner_tcp.$valid$";
header bool inner_udp_is_valid @ "hdr.inner_udp.$valid$";
header bool ipv4_is_valid @ "hdr.ipv4.$valid$";
header bool tcp_is_valid @ "hdr.tcp.$valid$";
header bool udp_is_valid @ "hdr.udp.$valid$";
header bit<32> inner_ipv4_src @ "hdr.inner_ipv4.src_addr";
header bit<32> inner_ipv4_dst @ "hdr.inner_ipv4.dst_addr";
header bit<8> inner_ipv4_proto @ "hdr.inner_ipv4.protocol";
header bit<16> inner_tcp_dport @ "hdr.inner_tcp.dport";
header bit<16> inner_udp_dport @ "hdr.inner_udp.dport";
header bit<32> outer_ipv4_src @ "hdr.ipv4.src_addr";
header bit<32> outer_ipv4_dst @ "hdr.ipv4.dst_addr";
header bit<8> outer_ipv4_proto @ "hdr.ipv4.protocol";
header bit<16> outer_tcp_sport @ "hdr.tcp.sport";
header bit<16> outer_udp_sport @ "hdr.udp.sport";
header bool to_be_dropped @ "fabric_metadata.skip_forwarding";

{
  if (inner_ipv4_is_valid) {
    // this is an uplink packet
    ue_ipv4_addr = inner_ipv4_src;
    app_ip_proto = inner_ipv4_proto;
    app_ipv4_addr = inner_ipv4_dst;
    if (inner_tcp_is_valid) {
      app_l4_port = inner_tcp_dport;
    } elsif (inner_udp_is_valid) {
      app_l4_port = inner_udp_dport;
    }
  } elsif (ipv4_is_valid) {
    // this is a downlink packet
    ue_ipv4_addr = outer_ipv4_dst;
    app_ip_proto = outer_ipv4_proto;
    app_ipv4_addr = outer_ipv4_src;
    if (tcp_is_valid) {
      app_l4_port = outer_tcp_sport;
    } elsif (udp_is_valid) {
      app_l4_port = outer_udp_sport;
    }
  }
  filtering_action = filtering_actions[(
    ue_ipv4_addr, app_ip_proto, app_ipv4_addr, app_l4_port)];
}
{ }
{
  if (filtering_action == 1 && !to_be_dropped) {
    reject;
    report((ue_ipv4_addr, app_ip_proto, app_ipv4_addr, app_l4_port,
            filtering_action));
  }
  if (filtering_action == 2 && to_be_dropped) {
    report((ue_ipv4_addr, app_ip_proto, app_ipv4_addr, app_l4_port,
            filtering_action));
  }
}
`

// VLANIsolationSrc checks that a packet only traverses switches that are
// members of its VLAN: the VLAN observed at the first hop must match the
// packet's VLAN at every later hop.
const VLANIsolationSrc = `
control dict<bit<16>,bool> vlan_members;
header bit<16> vlan_id @ "hdr.vlan_tag.vlan_id";
tele bit<16> entry_vlan;
tele bool vlan_mismatch = false;

{
  entry_vlan = vlan_id;
}
{
  if (vlan_id != entry_vlan) {
    vlan_mismatch = true;
  }
  if (!vlan_members[vlan_id]) {
    vlan_mismatch = true;
  }
}
{
  if (vlan_mismatch) {
    reject;
    report(entry_vlan);
  }
}
`

// EgressValiditySrc checks that at every hop the packet egresses at a
// port the control plane has allow-listed for that switch.
const EgressValiditySrc = `
control set<bit<8>> allowed_eg_ports;
header bit<8> eg_port @ "standard_metadata.egress_port";
tele bool invalid_egress = false;
tele bit<8> bad_port;
tele bit<32> bad_switch;

{ }
{
  if (!(eg_port in allowed_eg_ports)) {
    invalid_egress = true;
    bad_port = eg_port;
    bad_switch = switch_id;
  }
}
{
  if (invalid_egress) {
    reject;
    report((bad_switch, bad_port));
  }
}
`

// RoutingValiditySrc checks the leaf-spine routing invariant: the first
// and last hop of any packet are leaf switches and every intermediate
// hop is a spine switch.
const RoutingValiditySrc = `
control bool is_leaf;
tele bool first_is_leaf = false;
tele bool middle_ok = true;
tele bool started = false;

{ }
{
  if (!started) {
    started = true;
    first_is_leaf = is_leaf;
  } elsif (!last_hop) {
    if (is_leaf) {
      middle_ok = false;
    }
  }
}
{
  if (!first_is_leaf || !middle_ok || !is_leaf) {
    reject;
    report(switch_id);
  }
}
`

// LoopFreedomSrc checks that a packet does not revisit a switch within
// four hops, Table 1's "Loops (4 hops)" row. `path` keeps the last four
// switches and a push onto the full array evicts the oldest, so a
// revisit is caught only while the earlier visit is among the four
// before it: 1 2 3 4 1 is rejected, 1 2 3 4 5 1 passes
// (TestLoopFreedomWindow). Widening the array changes Table 1's PHV
// column.
const LoopFreedomSrc = `
tele bit<32>[4] path;
tele bool revisited = false;
tele bit<32> dup_switch;

{ }
{
  if (switch_id in path) {
    revisited = true;
    dup_switch = switch_id;
  }
  path.push(switch_id);
}
{
  if (revisited) {
    reject;
    report(dup_switch);
  }
}
`

// WaypointingSrc checks that every packet passes through the configured
// choke point (e.g. a firewall switch) on its way across the network.
const WaypointingSrc = `
control bit<32> waypoint_id;
tele bool visited_waypoint = false;

{ }
{
  if (switch_id == waypoint_id) {
    visited_waypoint = true;
  }
}
{
  if (!visited_waypoint) {
    reject;
    report(switch_id);
  }
}
`

// ServiceChainSrc checks that packets from switch s to switch t traverse
// the configured chain of waypoints (w1, ..., wn) in order. chain_index
// maps each waypoint's switch id to its 1-based position in the chain.
const ServiceChainSrc = `
control bit<32> src_switch;
control bit<32> dst_switch;
control bit<8> chain_len;
control dict<bit<32>,bit<8>> chain_index;
tele bit<8> next_index = 1;
tele bool out_of_order = false;
tele bool chain_applies = false;

{
  if (switch_id == src_switch) {
    chain_applies = true;
  }
}
{
  if (chain_applies) {
    if (chain_index[switch_id] != 0) {
      if (chain_index[switch_id] == next_index) {
        next_index += 1;
      } else {
        out_of_order = true;
      }
    }
  }
}
{
  if (chain_applies && switch_id == dst_switch) {
    if (out_of_order || next_index != chain_len + 1) {
      reject;
      report((next_index, switch_id));
    }
  }
}
`

// SourceRoutingSrc validates source-routed paths. Each source-route
// stack entry names the switch that should process it, so on arrival the
// top of the stack must equal the current switch; any divergence marks
// the packet, and the packet also carries the actual path taken so the
// checker's report can tell the operator where it really went.
const SourceRoutingSrc = `
tele bit<32>[8] actual_path;
tele bool mismatch = false;
tele bit<32> diverged_at;
header bit<32> sr_next @ "hdr.srcRoutes[0].switch_id";
header bool sr_valid @ "hdr.srcRoutes[0].$valid$";

{ }
{
  if (sr_valid && sr_next != switch_id) {
    mismatch = true;
    diverged_at = switch_id;
  }
  actual_path.push(switch_id);
}
{
  if (mismatch) {
    reject;
    report((diverged_at, hop_count));
  }
}
`

// ValleyFreeSrc is the valley-free routing checker of Figure 7: in a
// leaf-spine fabric a valley-free path visits a spine switch at most
// once, so visiting a second spine means the packet went down and then
// up again.
const ValleyFreeSrc = `
control bool is_spine_switch;
tele bool visited_spine;
tele bool to_reject;

{
  visited_spine = false;
  to_reject = false;
}
{
  if (is_spine_switch) {
    if (visited_spine) {
      to_reject = true;
    }
    visited_spine = true;
  }
}
{
  if (to_reject) {
    reject;
  }
}
`
