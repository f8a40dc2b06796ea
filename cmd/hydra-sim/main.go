// Command hydra-sim runs the paper's case studies end to end on the
// simulated substrate and narrates what happens.
//
// Usage:
//
//	hydra-sim -scenario valleyfree    # §5.1: valley-free source routing
//	hydra-sim -scenario aether-bug    # §5.2: the Figure 11 filtering bug
//	hydra-sim -scenario aether-fixed  # same scenario, repaired controller
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/aether"
	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/dataplane"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/srcrouting"
)

func main() {
	scenario := flag.String("scenario", "valleyfree", "valleyfree | aether-bug | aether-fixed")
	flag.Parse()

	switch *scenario {
	case "valleyfree":
		valleyFree()
	case "aether-bug":
		aetherBug(false)
	case "aether-fixed":
		aetherBug(true)
	default:
		fmt.Fprintf(os.Stderr, "hydra-sim: unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
}

func valleyFree() {
	sim := netsim.NewSimulator()
	f := srcrouting.Build(sim)

	info := checkers.MustParse("valley-free")
	prog := compiler.MustCompile(info, compiler.Options{Name: "valley-free"})
	rt := &compiler.Runtime{Prog: prog}
	must(rt.VMErr())
	for _, sw := range f.Switches() {
		att := sw.AttachChecker(rt, nil)
		spine := uint64(0)
		if f.IsSpine(sw) {
			spine = 1
		}
		must(att.State.Tables["is_spine_switch"].Insert(pipeline.Entry{
			Action: []pipeline.Value{pipeline.B(1, spine)},
		}))
	}

	fmt.Println("=== §5.1 valley-free source routing (Figure 8 topology) ===")
	legal, errant := 0, 0
	for _, src := range f.Hosts() {
		for _, dst := range f.Hosts() {
			if src == dst {
				continue
			}
			for _, path := range f.ValleyFreePaths(src, dst) {
				route, err := f.Route(path, dst)
				must(err)
				src.SendSourceRouted(dst.IP, route, 64)
				legal++
			}
			if f.Leaf(src) != f.Leaf(dst) {
				for _, path := range f.ValleyPaths(src, dst) {
					route, err := f.Route(path, dst)
					must(err)
					src.SendSourceRouted(dst.IP, route, 64)
					errant++
				}
			}
		}
	}
	sim.RunAll()

	delivered := uint64(0)
	rejected := uint64(0)
	for _, h := range f.Hosts() {
		delivered += h.RxUDP
	}
	for _, sw := range f.Switches() {
		rejected += sw.Checker().Rejected
	}
	fmt.Printf("sent: %d valley-free + %d errant (buggy sender) packets\n", legal, errant)
	fmt.Printf("delivered: %d (want %d)  rejected by Hydra at the edge: %d (want %d)\n",
		delivered, legal, rejected, errant)
	if delivered == uint64(legal) && rejected == uint64(errant) {
		fmt.Println("RESULT: all valley-free paths allowed, all errant paths dropped — matches §5.1")
	} else {
		fmt.Println("RESULT: MISMATCH")
		os.Exit(1)
	}
}

func aetherBug(fixed bool) {
	sim := netsim.NewSimulator()
	d := aether.Build(sim, aether.Options{WithChecker: true, FixedONOS: fixed})
	d.Core.DefineSlice(&aether.Slice{ID: 1, Rules: []aether.FilterRule{
		{Priority: 10, Allow: false},
		{Priority: 20, Proto: dataplane.ProtoUDP, PortLo: 81, PortHi: 81, Allow: true},
	}})

	mode := "buggy ONOS (as deployed)"
	if fixed {
		mode = "repaired ONOS (reconciling)"
	}
	fmt.Printf("=== §5.2 Aether application filtering — %s ===\n", mode)

	c1, err := d.Core.Attach("imsi-001", 1)
	must(err)
	fmt.Printf("client 1 attached: ue=%s teid=%d\n", c1.IP, c1.TEIDUp)

	d.SendUplink(c1, aether.ServerAddr, dataplane.ProtoUDP, 81, 100)
	sim.RunAll()
	fmt.Printf("phase 1: client 1 -> server:81/udp  delivered=%d reports=%d\n",
		d.Server.RxUDP, len(d.HydraApp.Reports))

	fmt.Println("portal update: allow udp 81-82 at priority 25")
	must(d.UpdatePortal(1, []aether.FilterRule{
		{Priority: 10, Allow: false},
		{Priority: 25, Proto: dataplane.ProtoUDP, PortLo: 81, PortHi: 82, Allow: true},
	}))
	c2, err := d.Core.Attach("imsi-002", 1)
	must(err)
	fmt.Printf("client 2 attached: ue=%s; UPF now: %s\n", c2.IP, d.UPF)

	d.SendUplink(c2, aether.ServerAddr, dataplane.ProtoUDP, 81, 100)
	sim.RunAll()
	fmt.Printf("phase 2: client 2 -> server:81/udp  delivered=%d reports=%d\n",
		d.Server.RxUDP, len(d.HydraApp.Reports))

	before := d.Server.RxUDP
	d.SendUplink(c1, aether.ServerAddr, dataplane.ProtoUDP, 81, 100)
	sim.RunAll()
	dropped := d.Server.RxUDP == before
	fmt.Printf("phase 3: client 1 -> server:81/udp  dropped=%v reports=%d\n",
		dropped, len(d.HydraApp.Reports))

	if !fixed {
		if dropped && len(d.HydraApp.Reports) == 1 {
			rep := d.HydraApp.Reports[0]
			fmt.Printf("RESULT: bug reproduced and caught — switch %d reported ue=%s proto=%d app=%s port=%d intent=allow\n",
				rep.Switch, rep.UEAddr, rep.Proto, rep.AppAddr, rep.L4Port)
			return
		}
		fmt.Println("RESULT: MISMATCH — the bug should drop the packet and raise one report")
		os.Exit(1)
	}
	if !dropped && len(d.HydraApp.Reports) == 0 {
		fmt.Println("RESULT: repaired controller delivers the packet, Hydra stays silent")
		return
	}
	fmt.Println("RESULT: MISMATCH under the repaired controller")
	os.Exit(1)
}

func must(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "hydra-sim: %v\n", err)
		os.Exit(1)
	}
}
