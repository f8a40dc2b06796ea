package aether

import (
	"fmt"

	"repro/internal/checkers"
	"repro/internal/controlplane"
	"repro/internal/dataplane"
	"repro/internal/netsim"
	"repro/internal/reportbus"
)

// Well-known addresses of the deployment (Figure 10).
var (
	UPFAddr    = dataplane.MustIP4("140.0.100.254")
	EnbAddr    = dataplane.MustIP4("140.0.100.1")
	UEPrefix   = dataplane.MustIP4("10.250.0.0")
	ServerAddr = dataplane.MustIP4("192.168.5.5")
	InetAddr   = dataplane.MustIP4("1.1.1.1")
)

// UEPrefixBits is the size of the mobile-client address block.
const UEPrefixBits = 16

// Deployment is a built Aether edge site: a 2×2 leaf-spine fabric where
// leaf1 performs the UPF function and fronts the base station, and
// leaf2 fronts the edge application server and the internet uplink
// (Figure 10).
type Deployment struct {
	Sim *netsim.Simulator

	Leaf1, Leaf2     *netsim.Switch
	Spine1, Spine2   *netsim.Switch
	Enb, Server, Net *netsim.Host

	UPF  *UPF
	ONOS *ONOS
	Core *MobileCore

	// Hydra pieces (nil when built without the checker): the intent app,
	// and the report bus on the simulator's clock that every digest the
	// checker raises is published into.
	HydraApp *HydraApp
	Bus      *reportbus.Bus

	ipID uint16
}

// knownApps lists the application endpoints the Hydra app expands intent
// over: the edge server on UDP ports 80-82 and TCP 80, and the Internet
// host's DNS.
var knownApps = []AppEndpoint{
	{IP: ServerAddr, Proto: dataplane.ProtoUDP, Ports: []uint16{80, 81, 82}},
	{IP: ServerAddr, Proto: dataplane.ProtoTCP, Ports: []uint16{80}},
	{IP: InetAddr, Proto: dataplane.ProtoUDP, Ports: []uint16{53}},
}

// Options configures the build.
type Options struct {
	// WithChecker deploys the Figure 9 application-filtering checker on
	// every switch through a controlplane.Controller and starts the
	// Hydra control-plane app on it.
	WithChecker bool
	// FixedONOS enables the repaired controller (no Figure 11 bug).
	FixedONOS bool
}

// Build constructs the deployment.
func Build(sim *netsim.Simulator, opts Options) *Deployment {
	d := &Deployment{Sim: sim}

	// The 2×2 mesh: leaf ports 1,2 → spines; spine port 1 → leaf1, port
	// 2 → leaf2.
	ls := netsim.BuildLeafSpine(sim, netsim.LeafSpineConfig{Leaves: 2, Spines: 2})
	d.Leaf1, d.Leaf2 = ls.Leaves[0], ls.Leaves[1]
	d.Spine1, d.Spine2 = ls.Spines[0], ls.Spines[1]

	host := func(name string, ip dataplane.IP4, sw *netsim.Switch, port int, mac uint64) *netsim.Host {
		h := netsim.NewHost(sim, name, dataplane.MACFromUint64(mac), ip)
		h.GatewayMAC = dataplane.MACFromUint64(0xAA)
		netsim.Connect(sim, sw, port, h, 0, 10_000_000_000, netsim.Microsecond).QueueBytes = 512 << 10
		return h
	}
	d.Enb = host("enb", EnbAddr, d.Leaf1, 3, 0xE1)
	d.Server = host("server", ServerAddr, d.Leaf2, 3, 0x51)
	d.Net = host("internet", InetAddr, d.Leaf2, 4, 0x52)

	// Forwarding: leaf1 runs the UPF; the rest route.
	d.UPF = NewUPF(UPFAddr, EnbAddr, UEPrefix, UEPrefixBits)
	d.UPF.Routes.AddRoute(EnbAddr, 32, 3)
	d.UPF.Routes.AddRoute(dataplane.MustIP4("192.168.5.0"), 24, 1, 2)
	d.UPF.Routes.AddRoute(InetAddr, 32, 1, 2)
	d.Leaf1.Forwarding = d.UPF

	leaf2 := &netsim.L3Program{}
	leaf2.AddRoute(ServerAddr, 32, 3)
	leaf2.AddRoute(InetAddr, 32, 4)
	leaf2.AddRoute(UEPrefix, UEPrefixBits, 1, 2)
	leaf2.AddRoute(dataplane.MustIP4("140.0.100.0"), 24, 1, 2)
	d.Leaf2.Forwarding = leaf2

	for _, spine := range []*netsim.Switch{d.Spine1, d.Spine2} {
		p := &netsim.L3Program{}
		p.AddRoute(UEPrefix, UEPrefixBits, 1)
		p.AddRoute(dataplane.MustIP4("140.0.100.0"), 24, 1)
		p.AddRoute(dataplane.MustIP4("192.168.5.0"), 24, 2)
		p.AddRoute(InetAddr, 32, 2)
		spine.Forwarding = p
	}

	d.ONOS = NewONOS(d.UPF)
	d.ONOS.FixedReconciliation = opts.FixedONOS
	d.Core = NewMobileCore(d.ONOS)

	if opts.WithChecker {
		d.Bus = reportbus.New(reportbus.Config{Clock: func() int64 { return int64(sim.Now()) }})
		ctl := controlplane.NewController(d.Bus)
		if err := ctl.Deploy(checkerName, checkers.MustParse("app-filtering"), d.Switches()...); err != nil {
			panic(fmt.Sprintf("aether: %v", err))
		}
		d.HydraApp = NewHydraApp(d.Core, ctl, d.Bus, knownApps)
	}
	return d
}

// Switches returns all fabric switches.
func (d *Deployment) Switches() []*netsim.Switch {
	return []*netsim.Switch{d.Leaf1, d.Leaf2, d.Spine1, d.Spine2}
}

// UpdatePortal applies an operator rules update for a slice: the mobile
// core records it for future attaches, and the Hydra app refreshes the
// checker's intent for everyone immediately.
func (d *Deployment) UpdatePortal(sliceID uint8, rules []FilterRule) error {
	if err := d.Core.UpdateSliceRules(sliceID, rules); err != nil {
		return err
	}
	if d.HydraApp != nil {
		d.HydraApp.Refresh()
	}
	return nil
}

// SendUplink emits one uplink user packet for ue: the base station
// GTP-encapsulates it toward the UPF.
func (d *Deployment) SendUplink(ue *UE, dst dataplane.IP4, proto uint8, dport uint16, payloadLen int) {
	d.ipID++
	pkt := &dataplane.Decoded{
		Eth:     dataplane.Ethernet{Dst: d.Enb.GatewayMAC, Src: d.Enb.MAC, Type: dataplane.EtherTypeIPv4},
		HasIPv4: true,
		IPv4:    dataplane.IPv4{ID: d.ipID, TTL: 64, Protocol: proto, Src: ue.IP, Dst: dst},
		Payload: make([]byte, payloadLen),
	}
	switch proto {
	case dataplane.ProtoUDP:
		pkt.HasUDP = true
		pkt.UDP = dataplane.UDP{SrcPort: 40000 + ue.ID, DstPort: dport}
	case dataplane.ProtoTCP:
		pkt.HasTCP = true
		pkt.TCP = dataplane.TCP{SrcPort: 40000 + ue.ID, DstPort: dport, Flags: dataplane.TCPSyn}
	}
	if err := pkt.EncapGTPU(EnbAddr, UPFAddr, ue.TEIDUp); err != nil {
		panic(fmt.Sprintf("aether: encap: %v", err))
	}
	d.Enb.SendPacket(pkt)
}
