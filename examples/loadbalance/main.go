// Data center load balancing (§2, Figure 2): the checker verifies that
// the fabric's ECMP actually balances the two uplinks of a leaf within a
// byte threshold. We first run well-hashed traffic (no report), then
// simulate an ECMP hashing fault by pinning every flow to one uplink and
// watch the imbalance reports fire.
//
//	go run ./examples/loadbalance
package main

import (
	"fmt"
	"log"

	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/dataplane"
	"repro/internal/netsim"
	"repro/internal/pipeline"
)

// pinnedECMP is a broken router that sends every cross-leaf flow out of
// port 1 — the hashing fault the checker should expose.
type pinnedECMP struct{ inner *netsim.L3Program }

func (p pinnedECMP) Process(sw *netsim.Switch, pkt *dataplane.Decoded, meta *netsim.PacketMeta) []netsim.Egress {
	out := p.inner.Process(sw, pkt, meta)
	if len(out) == 1 && (out[0].Port == 1 || out[0].Port == 2) {
		out[0].Port = 1 // all eggs in one basket
	}
	return out
}

func main() {
	sim := netsim.NewSimulator()
	ls := netsim.BuildLeafSpine(sim, netsim.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 1, WithRouting: true,
	})

	info := checkers.MustParse("load-balance")
	compiled := compiler.MustCompile(info, compiler.Options{Name: "load-balance"})
	rt := &compiler.Runtime{Prog: compiled}

	var reports int
	for _, sw := range ls.AllSwitches() {
		att := sw.AttachChecker(rt, func(pipeline.Report) {
			reports++
		})
		scalar := func(name string, w int, v uint64) {
			if err := att.State.Tables[name].Insert(pipeline.Entry{
				Action: []pipeline.Value{pipeline.B(w, v)},
			}); err != nil {
				log.Fatal(err)
			}
		}
		scalar("left_port", 8, 1)
		scalar("right_port", 8, 2)
		scalar("thresh", 32, 8000) // bytes of allowed skew
	}
	// Uplink ports are a leaf concept: only the leaves' spine-facing
	// ports 1 and 2 count toward the balance sensors. (A spine pushes
	// all of a destination's traffic through one port by design.)
	for _, leaf := range ls.Leaves {
		for _, port := range []uint64{1, 2} {
			if err := leaf.Checker().State.Tables["is_uplink"].Insert(pipeline.Entry{
				Keys:   []pipeline.KeyMatch{pipeline.ExactKey(port)},
				Action: []pipeline.Value{pipeline.BoolV(true)},
			}); err != nil {
				log.Fatal(err)
			}
		}
	}

	h1, h2 := ls.Host(0, 0), ls.Host(1, 0)

	// Pick source ports whose flows alternate between the two uplinks,
	// so healthy ECMP keeps the running skew under one packet.
	var viaLeft, viaRight []uint16
	for p := uint16(20000); len(viaLeft) < 40 || len(viaRight) < 40; p++ {
		probe := &dataplane.Decoded{
			HasIPv4: true,
			IPv4:    dataplane.IPv4{Src: h1.IP, Dst: h2.IP, Protocol: dataplane.ProtoUDP},
			HasUDP:  true,
			UDP:     dataplane.UDP{SrcPort: p, DstPort: 80},
		}
		if netsim.FlowHash(probe)%2 == 0 {
			viaLeft = append(viaLeft, p)
		} else {
			viaRight = append(viaRight, p)
		}
	}
	blast := func(n int) {
		for i := 0; i < n; i++ {
			h1.SendUDP(h2.IP, viaLeft[i%len(viaLeft)], 80, 1000)
			h1.SendUDP(h2.IP, viaRight[i%len(viaRight)], 80, 1000)
			sim.RunAll() // drain so the sensors see strict alternation
		}
	}

	blast(40)
	fmt.Printf("healthy ECMP: spine1=%d spine2=%d frames, imbalance reports=%d\n",
		ls.Spines[0].RxFrames, ls.Spines[1].RxFrames, reports)

	// Break the hashing.
	ls.Leaves[0].Forwarding = pinnedECMP{inner: ls.Leaves[0].Forwarding.(*netsim.L3Program)}
	before := reports
	blast(40)
	fmt.Printf("pinned ECMP:  spine1=%d spine2=%d frames, new imbalance reports=%d\n",
		ls.Spines[0].RxFrames, ls.Spines[1].RxFrames, reports-before)

	if reports > before {
		fmt.Println("\nthe checker's per-switch byte sensors crossed the threshold and reported —")
		fmt.Println("no polling, no collector: the imbalance was flagged by the packets themselves.")
	}
}
